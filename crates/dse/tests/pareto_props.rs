//! Property tests for the Pareto-front fold used both inside a work unit
//! and by the unit-order merge.

use maestro_dse::{insert_pareto, DesignPoint, ParetoFront};
use proptest::prelude::*;

/// A design point whose only meaningful coordinates are (runtime, energy).
/// Small integer grids force plenty of exact ties and duplicates.
fn point(runtime: u64, energy: u64) -> DesignPoint {
    DesignPoint {
        pes: 0,
        noc_bw: 0,
        l1_bytes: 0,
        l2_bytes: 0,
        mapping: String::new().into(),
        area_mm2: 0.0,
        power_mw: 0.0,
        runtime: runtime as f64,
        throughput: 0.0,
        energy: energy as f64,
        edp: 0.0,
    }
}

fn fold(points: &[(u64, u64)]) -> Vec<DesignPoint> {
    let mut front = Vec::new();
    for &(r, e) in points {
        insert_pareto(&mut front, &point(r, e));
    }
    front
}

/// The front as a sorted set of (runtime, energy) pairs.
fn pairs(front: &[DesignPoint]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = front
        .iter()
        .map(|p| (p.runtime as u64, p.energy as u64))
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Brute-force reference: the distinct pairs not strictly dominated by any
/// input pair.
fn reference_front(points: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = points
        .iter()
        .copied()
        .filter(|&(r, e)| {
            !points
                .iter()
                .any(|&(qr, qe)| qr <= r && qe <= e && (qr < r || qe < e))
        })
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Eight points over a 5×5 grid: dense enough for dominance chains,
/// duplicates, and ties on a single axis.
#[allow(clippy::type_complexity)]
fn points_strategy() -> impl Strategy<
    Value = (
        (u64, u64),
        (u64, u64),
        (u64, u64),
        (u64, u64),
        (u64, u64),
        (u64, u64),
        (u64, u64),
        (u64, u64),
    ),
> {
    let p = || (1u64..6, 1u64..6);
    (p(), p(), p(), p(), p(), p(), p(), p())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn front_is_nondominated_and_minimal(pts in points_strategy(), rotation in 0usize..8) {
        let (a, b, c, d, e, f, g, h) = pts;
        let mut points = vec![a, b, c, d, e, f, g, h];

        let front = fold(&points);
        // No member strictly dominates another (equal pairs never coexist:
        // insert_pareto drops exact ties on arrival).
        for x in &front {
            for y in &front {
                if std::ptr::eq(x, y) {
                    continue;
                }
                prop_assert!(
                    !(x.runtime <= y.runtime && x.energy <= y.energy),
                    "{}/{} dominates {}/{}",
                    x.runtime, x.energy, y.runtime, y.energy
                );
            }
        }
        // As a set, the front is exactly the non-dominated subset.
        prop_assert_eq!(pairs(&front), reference_front(&points));

        // Insertion order must not change the front as a set.
        points.rotate_left(rotation);
        let rotated = fold(&points);
        prop_assert_eq!(pairs(&rotated), pairs(&front));
        points.reverse();
        let reversed = fold(&points);
        prop_assert_eq!(pairs(&reversed), pairs(&front));
    }

    /// The SoA [`ParetoFront`] is a drop-in for folding through
    /// `insert_pareto`: same accept/reject verdicts point-by-point, and the
    /// exact same surviving points *in the same order* (not just as a set)
    /// — the explorer's inserted/rejected tallies and serialized fronts
    /// depend on both.
    #[test]
    fn soa_front_matches_insert_pareto_exactly(pts in points_strategy(), rotation in 0usize..8) {
        let (a, b, c, d, e, f, g, h) = pts;
        let mut points = vec![a, b, c, d, e, f, g, h];
        points.rotate_left(rotation);

        let mut vec_front = Vec::new();
        let mut soa_front = ParetoFront::new();
        for &(r, e) in &points {
            let p = point(r, e);
            let vec_accepted = insert_pareto(&mut vec_front, &p);
            let soa_accepted = soa_front.insert(&p);
            prop_assert_eq!(vec_accepted, soa_accepted, "verdict diverged on {:?}", (r, e));
            prop_assert_eq!(&vec_front, soa_front.points(), "front diverged after {:?}", (r, e));
        }
        prop_assert_eq!(vec_front, soa_front.into_points());
    }
}

/// The lazy-materialization path (`try_insert_with`) only invokes its
/// constructor on acceptance, and non-finite objectives are rejected
/// before the constructor can run.
#[test]
fn try_insert_with_builds_points_only_on_acceptance() {
    let mut front = ParetoFront::new();
    assert!(front.try_insert_with(2.0, 2.0, || fpoint(2.0, 2.0)));
    // Dominated: constructor must not run.
    assert!(!front.try_insert_with(3.0, 3.0, || unreachable!("dominated point was built")));
    // Non-finite: rejected before the dominance scan.
    assert!(!front.try_insert_with(f64::NAN, 0.0, || unreachable!("NaN point was built")));
    assert!(!front.try_insert_with(0.0, f64::INFINITY, || unreachable!("inf point was built")));
    // Dominating: accepted, evicts the incumbent.
    assert!(front.try_insert_with(1.0, 1.0, || fpoint(1.0, 1.0)));
    assert_eq!(front.len(), 1);
    assert_eq!(
        (front.points()[0].runtime, front.points()[0].energy),
        (1.0, 1.0)
    );
}

/// A point with raw float coordinates, for non-finite inputs.
fn fpoint(runtime: f64, energy: f64) -> DesignPoint {
    DesignPoint {
        runtime,
        energy,
        ..point(0, 0)
    }
}

/// Non-finite objectives must neither enter the front nor evict finite
/// incumbents (regression test for the NaN-safety gate: a NaN compares
/// "not dominated" against everything, so an ungated fold would both
/// admit it and let it survive all later dominance checks).
#[test]
fn non_finite_points_never_enter_the_front() {
    let mut front = Vec::new();
    for bad in [
        fpoint(f64::NAN, 1.0),
        fpoint(1.0, f64::NAN),
        fpoint(f64::NAN, f64::NAN),
        fpoint(f64::INFINITY, 1.0),
        fpoint(1.0, f64::NEG_INFINITY),
    ] {
        insert_pareto(&mut front, &bad);
        assert!(front.is_empty(), "{bad:?} entered an empty front");
    }

    // Establish a finite front, then attack it with NaN points.
    insert_pareto(&mut front, &fpoint(2.0, 3.0));
    insert_pareto(&mut front, &fpoint(3.0, 2.0));
    assert_eq!(front.len(), 2);
    insert_pareto(&mut front, &fpoint(f64::NAN, 0.0));
    insert_pareto(&mut front, &fpoint(0.0, f64::NAN));
    assert_eq!(front.len(), 2, "NaN point evicted a finite incumbent");
    assert!(front
        .iter()
        .all(|p| p.runtime.is_finite() && p.energy.is_finite()));

    // A finite dominating point still works after the NaN attacks.
    insert_pareto(&mut front, &fpoint(1.0, 1.0));
    assert_eq!(front.len(), 1);
    assert_eq!((front[0].runtime, front[0].energy), (1.0, 1.0));
}

#[test]
fn duplicate_points_keep_first_occurrence_only() {
    let front = fold(&[(2, 2), (2, 2), (2, 2)]);
    assert_eq!(front.len(), 1);
}

#[test]
fn dominated_then_dominating() {
    let front = fold(&[(3, 3), (1, 1)]);
    assert_eq!(pairs(&front), vec![(1, 1)]);
    let front = fold(&[(1, 1), (3, 3)]);
    assert_eq!(pairs(&front), vec![(1, 1)]);
}
