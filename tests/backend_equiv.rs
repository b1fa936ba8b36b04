//! Decomposition equivalence through the *public App API*: the same
//! declaration built with the defaults (one rank, one thread) and with
//! `.ranks(r).threads(t)` must produce bit-identical trajectories — the
//! paper's Fig. 3 premise that decomposition is pure execution policy,
//! surfaced as an API contract (the hand-wired driver is covered
//! separately in `parallel_equiv.rs`).

use vlasov_dg::core::app::App;
use vlasov_dg::core::species::maxwellian;
use vlasov_dg::prelude::*;

fn make_app(nx: usize, ranks: usize, threads: usize) -> App {
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
        .ranks(ranks)
        .threads(threads)
        .build()
        .unwrap()
}

#[test]
fn rank_parallel_backend_is_bit_identical_through_run() {
    // Adaptive (CFL-suggested) stepping: the dt sequence itself must also
    // agree, which run() exercises end to end, observers included.
    let t_end = 0.02;
    let mut serial = make_app(9, 1, 1);
    let mut serial_hist = EnergyHistory::every(5e-3);
    serial.run(t_end, &mut [&mut serial_hist]).unwrap();

    for ranks in [2usize, 3, 9] {
        let mut par = make_app(9, ranks, 2);
        let mut par_hist = EnergyHistory::every(5e-3);
        par.run(t_end, &mut [&mut par_hist]).unwrap();

        assert_eq!(
            serial.steps_taken(),
            par.steps_taken(),
            "ranks={ranks}: adaptive dt sequences diverged"
        );
        for s in 0..2 {
            assert_eq!(
                serial.state().species_f[s].as_slice(),
                par.state().species_f[s].as_slice(),
                "ranks={ranks}, species {s}: trajectory diverged"
            );
        }
        assert_eq!(
            serial.state().em.as_slice(),
            par.state().em.as_slice(),
            "ranks={ranks}: EM trajectory diverged"
        );
        // Observer views agree bit-for-bit as well.
        assert_eq!(serial_hist.samples.len(), par_hist.samples.len());
        for (a, b) in serial_hist.samples.iter().zip(&par_hist.samples) {
            assert_eq!(a, b, "ranks={ranks}: history samples diverged");
        }
    }
}

#[test]
fn rank_parallel_survives_awkward_rank_counts() {
    // Prime cell count, more ranks than slabs: empty ranks must be
    // harmless and still bit-identical.
    let mut serial = make_app(7, 1, 1);
    serial.set_fixed_dt(5e-4);
    serial.run(0.002, &mut []).unwrap();
    let mut par = make_app(7, 16, 3);
    par.set_fixed_dt(5e-4);
    par.run(0.002, &mut []).unwrap();
    assert_eq!(
        serial.state().species_f[0].as_slice(),
        par.state().species_f[0].as_slice()
    );
}

fn make_walled_app(nx: usize, ranks: usize, threads: usize) -> App {
    // Bounded domain: electrons reflect on the left and are absorbed on
    // the right, ions absorb on both sides — the decomposed dim-0 edges
    // are walls, not halo exchanges, and rank 0 / the last rank own them.
    AppBuilder::new()
        .conf_grid(&[0.0], &[4.0], &[nx])
        .poly_order(1)
        .basis(BasisKind::Serendipity)
        .conf_bc(vec![DimBc::new(Bc::Reflect, Bc::Absorb)])
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0, -6.0], &[6.0, 6.0], &[6, 6])
                .initial(|x, v| maxwellian(1.0 + 0.05 * x[0], &[0.4, 0.0], 1.0, v)),
        )
        .species(
            SpeciesSpec::new("ion", 1.0, 25.0, &[-6.0, -6.0], &[6.0, 6.0], &[6, 6])
                .initial(|_x, v| maxwellian(1.0, &[0.0], 0.2, v))
                .conf_bc(vec![Bc::Absorb]),
        )
        .field(FieldSpec::new(2.0).cleaning(1.0, 0.0))
        .ranks(ranks)
        .threads(threads)
        .build()
        .unwrap()
}

#[test]
fn walled_domain_is_bit_identical_across_backends() {
    // Non-periodic decomposition: the wall faces live on the edge ranks
    // and the halo logic must not wrap. States, dt sequences, observer
    // views, and the wall-flux ledger all agree bit for bit.
    let t_end = 0.02;
    let mut serial = make_walled_app(9, 1, 1);
    let mut serial_ledger = WallFluxLedger::every(5e-3);
    serial.run(t_end, &mut [&mut serial_ledger]).unwrap();
    assert!(
        serial_ledger.mass_balance_error() < 1e-12,
        "serial walled run out of balance: {:.3e}",
        serial_ledger.mass_balance_error()
    );

    for ranks in [2usize, 3, 9] {
        let mut par = make_walled_app(9, ranks, 2);
        let mut par_ledger = WallFluxLedger::every(5e-3);
        par.run(t_end, &mut [&mut par_ledger]).unwrap();
        assert_eq!(
            serial.steps_taken(),
            par.steps_taken(),
            "ranks={ranks}: adaptive dt sequences diverged"
        );
        for s in 0..2 {
            assert_eq!(
                serial.state().species_f[s].as_slice(),
                par.state().species_f[s].as_slice(),
                "ranks={ranks}, species {s}: walled trajectory diverged"
            );
        }
        assert_eq!(
            serial.state().em.as_slice(),
            par.state().em.as_slice(),
            "ranks={ranks}: walled EM trajectory diverged"
        );
        assert_eq!(
            serial_ledger.samples, par_ledger.samples,
            "ranks={ranks}: wall ledgers diverged"
        );
    }
}

#[test]
fn zero_rank_backend_is_a_build_error() {
    let k = 0.5;
    let err = AppBuilder::new()
        .conf_grid(&[0.0], &[2.0 * std::f64::consts::PI / k], &[4])
        .poly_order(1)
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[4])
                .initial(|_x, v| maxwellian(1.0, &[0.0], 1.0, v)),
        )
        .field(FieldSpec::new(1.0))
        .ranks(0)
        .build()
        .err()
        .expect("zero ranks must not build");
    assert!(matches!(err, Error::Build(_)), "got {err:?}");
}
