//! Shared-memory parallelism through the *public App API*: the same
//! declaration built with `AppBuilder::threads(n)` must produce
//! bit-identical trajectories for every thread count — the cell-block
//! decomposition of `dg_core::blocks` preserves each cell's floating-point
//! accumulation order exactly, so intra-rank threading is pure execution
//! policy, never a physics switch (the rank × thread composition is
//! covered in `backend_equiv.rs` and `parallel_equiv.rs`).

use vlasov_dg::core::app::App;
use vlasov_dg::core::species::maxwellian;
use vlasov_dg::prelude::*;

fn make_app(nx: usize, threads: Option<usize>) -> App {
    let k = 0.5;
    let mut b = AppBuilder::new()
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
                .initial(|_x, v| maxwellian(1.0, &[0.0, 0.0], 0.1, v))
                .collisions(0.5),
        )
        .field(FieldSpec::new(2.0).with_poisson_init().cleaning(1.0, 1.0));
    if let Some(n) = threads {
        b = b.threads(n);
    }
    b.build().unwrap()
}

#[test]
fn threaded_serial_backend_is_bit_identical_through_run() {
    // Adaptive (CFL-suggested) stepping with LBO collisions active on one
    // species: the dt sequence, both species' trajectories, the EM field,
    // and the observer views must all agree bit for bit at every thread
    // count — including threads > blocks (nx = 9, threads = 5 leaves some
    // workers with fewer blocks).
    let t_end = 0.02;
    let mut baseline = make_app(9, None);
    let mut baseline_hist = EnergyHistory::every(5e-3);
    baseline.run(t_end, &mut [&mut baseline_hist]).unwrap();

    for threads in [1usize, 2, 5] {
        let mut threaded = make_app(9, Some(threads));
        let mut hist = EnergyHistory::every(5e-3);
        threaded.run(t_end, &mut [&mut hist]).unwrap();

        assert_eq!(
            baseline.steps_taken(),
            threaded.steps_taken(),
            "threads={threads}: adaptive dt sequences diverged"
        );
        for s in 0..2 {
            assert_eq!(
                baseline.state().species_f[s].as_slice(),
                threaded.state().species_f[s].as_slice(),
                "threads={threads}, species {s}: trajectory diverged"
            );
        }
        assert_eq!(
            baseline.state().em.as_slice(),
            threaded.state().em.as_slice(),
            "threads={threads}: EM trajectory diverged"
        );
        assert_eq!(baseline_hist.samples.len(), hist.samples.len());
        for (a, b) in baseline_hist.samples.iter().zip(&hist.samples) {
            assert_eq!(a, b, "threads={threads}: history samples diverged");
        }
    }
}

fn make_walled_app(nx: usize, threads: Option<usize>) -> App {
    // Bounded domain: the dim-0 edge blocks own the wall faces and their
    // ledger channels, interior blocks contribute exact zeros — the
    // deterministic lower-walls → interior → upper-walls reduction must
    // reproduce the serial ledger bit for bit.
    let mut b = AppBuilder::new()
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
        .field(FieldSpec::new(2.0).cleaning(1.0, 0.0));
    if let Some(n) = threads {
        b = b.threads(n);
    }
    b.build().unwrap()
}

#[test]
fn walled_domain_is_bit_identical_across_thread_counts() {
    let t_end = 0.02;
    let mut baseline = make_walled_app(9, None);
    let mut baseline_ledger = WallFluxLedger::every(5e-3);
    baseline.run(t_end, &mut [&mut baseline_ledger]).unwrap();
    assert!(
        baseline_ledger.mass_balance_error() < 1e-12,
        "serial walled run out of balance: {:.3e}",
        baseline_ledger.mass_balance_error()
    );

    for threads in [1usize, 2, 5] {
        let mut threaded = make_walled_app(9, Some(threads));
        let mut ledger = WallFluxLedger::every(5e-3);
        threaded.run(t_end, &mut [&mut ledger]).unwrap();
        assert_eq!(
            baseline.steps_taken(),
            threaded.steps_taken(),
            "threads={threads}: adaptive dt sequences diverged"
        );
        for s in 0..2 {
            assert_eq!(
                baseline.state().species_f[s].as_slice(),
                threaded.state().species_f[s].as_slice(),
                "threads={threads}, species {s}: walled trajectory diverged"
            );
        }
        assert_eq!(
            baseline.state().em.as_slice(),
            threaded.state().em.as_slice(),
            "threads={threads}: walled EM trajectory diverged"
        );
        assert_eq!(
            baseline_ledger.samples, ledger.samples,
            "threads={threads}: wall ledgers diverged"
        );
    }
}

#[test]
fn zero_threads_is_a_typed_build_error() {
    let err = AppBuilder::new()
        .conf_grid(&[0.0], &[1.0], &[4])
        .poly_order(1)
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[4])
                .initial(|_x, v| maxwellian(1.0, &[0.0], 1.0, v)),
        )
        .field(FieldSpec::new(1.0))
        .threads(0)
        .build()
        .err()
        .expect("zero threads must not build");
    assert!(matches!(err, Error::Build(_)), "got {err:?}");
}
