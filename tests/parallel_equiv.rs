//! End-to-end parallel ≡ serial: full multi-species Vlasov–Maxwell
//! trajectories stepped by the driver under the two-level (ranks ×
//! threads) decomposition must match the one-block App bit-for-bit for
//! every rank count — determinism is part of the
//! contract (the paper's decomposition communicates identical halo data in
//! a fixed order; ours reproduces the exact floating-point addition order).

use vlasov_dg::basis::BasisKind;
use vlasov_dg::core::app::{App, AppBuilder, FieldSpec, SpeciesSpec};
use vlasov_dg::core::blocks::Driver;
use vlasov_dg::core::species::maxwellian;

fn make_app(nx: usize) -> App {
    let k = 0.5;
    AppBuilder::new()
        .conf_grid(&[0.0], &[2.0 * std::f64::consts::PI / k], &[nx])
        .poly_order(1)
        .basis(BasisKind::Serendipity)
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0, -6.0], &[6.0, 6.0], &[6, 6]).initial(
                move |x, v| maxwellian(1.0 + 0.06 * (k * x[0]).cos(), &[0.2, 0.0], 1.0, v),
            ),
        )
        .species(
            SpeciesSpec::new("ion", 1.0, 100.0, &[-6.0, -6.0], &[6.0, 6.0], &[6, 6])
                .initial(|_x, v| maxwellian(1.0, &[0.0, 0.0], 0.1, v)),
        )
        .field(FieldSpec::new(2.0).with_poisson_init().cleaning(1.0, 1.0))
        .build()
        .unwrap()
}

#[test]
fn trajectories_match_bitwise_for_all_rank_counts() {
    let dt = 5e-4;
    let steps = 8;
    let mut serial = make_app(9);
    serial.set_fixed_dt(dt);
    for _ in 0..steps {
        serial.step().unwrap();
    }

    for ranks in [2usize, 3, 4, 9] {
        let (sys, mut state) = make_app(9).into_parts();
        let mut driver = Driver::new(sys, ranks, 2).unwrap();
        for _ in 0..steps {
            driver.step(&mut state, dt);
        }
        for s in 0..2 {
            assert_eq!(
                serial.state().species_f[s].as_slice(),
                state.species_f[s].as_slice(),
                "ranks={ranks}, species {s}: trajectory diverged"
            );
        }
        assert_eq!(
            serial.state().em.as_slice(),
            state.em.as_slice(),
            "ranks={ranks}: EM trajectory diverged"
        );
    }
}

#[test]
fn decomposition_survives_awkward_grid_sizes() {
    // Prime nx with rank counts that do not divide it.
    let dt = 5e-4;
    let mut serial = make_app(7);
    serial.set_fixed_dt(dt);
    for _ in 0..3 {
        serial.step().unwrap();
    }
    let (sys, mut state) = make_app(7).into_parts();
    let mut driver = Driver::new(sys, 5, 3).unwrap();
    for _ in 0..3 {
        driver.step(&mut state, dt);
    }
    assert_eq!(
        serial.state().species_f[0].as_slice(),
        state.species_f[0].as_slice()
    );
}
