//! The partial-validity predicate the explorer cuts dead subtrees with.
//!
//! [`DesignSpace::is_dead`] may only call a partial assignment dead
//! when no completion of it is valid: a wrong "dead" would silently
//! drop reachable configurations from the search. At full depth it must
//! agree with [`DesignSpace::config_at`].

use gnnav_nn::ModelKind;
use gnnav_runtime::DesignSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

const MODEL: ModelKind = ModelKind::Sage;

/// Every full assignment of `space`, in odometer order.
fn all_assignments(space: &DesignSpace) -> Vec<Vec<usize>> {
    let axes = space.num_axes();
    let mut out = Vec::new();
    let mut idx = vec![0usize; axes];
    loop {
        out.push(idx.clone());
        let mut axis = axes;
        loop {
            if axis == 0 {
                return out;
            }
            axis -= 1;
            idx[axis] += 1;
            if idx[axis] < space.axis_len(axis) {
                break;
            }
            idx[axis] = 0;
        }
    }
}

/// `indices` with every axis outside `mask` zeroed.
fn project(indices: &[usize], mask: u32) -> Vec<usize> {
    indices.iter().enumerate().map(|(a, &i)| if mask & (1 << a) != 0 { i } else { 0 }).collect()
}

#[test]
fn reduced_space_dead_partials_have_no_valid_completion_exhaustively() {
    let space = DesignSpace::reduced();
    let full = all_assignments(&space);
    let valid: Vec<&Vec<usize>> =
        full.iter().filter(|idx| space.config_at(idx, MODEL).is_some()).collect();
    assert!(!valid.is_empty());
    let mut dead_seen = 0usize;
    for mask in 0..=DesignSpace::ALL_AXES {
        // A partial is live iff some valid point projects onto it.
        let live: HashSet<Vec<usize>> = valid.iter().map(|idx| project(idx, mask)).collect();
        let partials: HashSet<Vec<usize>> = full.iter().map(|idx| project(idx, mask)).collect();
        for partial in &partials {
            if space.is_dead(partial, mask) {
                dead_seen += 1;
                assert!(
                    !live.contains(partial),
                    "partial {partial:?} (mask {mask:#b}) declared dead has a valid completion"
                );
            }
        }
    }
    assert!(dead_seen > 0, "the reduced space has dead partial assignments");
}

#[test]
fn valid_point_counts_are_pinned() {
    // `config_at` delegates its cache-axis rule to `is_dead`, so the
    // agreement below cannot catch a rule that changed in both; these
    // counts, recorded when the rule still lived inline in `config_at`,
    // can.
    assert_eq!(DesignSpace::reduced().enumerate(MODEL).len(), 108);
    assert_eq!(DesignSpace::standard().enumerate(MODEL).len(), 362_880);
}

#[test]
fn predicate_agrees_with_config_at_at_full_depth() {
    let reduced = DesignSpace::reduced();
    for idx in all_assignments(&reduced) {
        assert_eq!(
            reduced.is_dead(&idx, DesignSpace::ALL_AXES),
            reduced.config_at(&idx, MODEL).is_none()
        );
    }
    let standard = DesignSpace::standard();
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut invalid = 0usize;
    for _ in 0..20_000 {
        let idx: Vec<usize> =
            (0..standard.num_axes()).map(|a| rng.gen_range(0..standard.axis_len(a))).collect();
        let none = standard.config_at(&idx, MODEL).is_none();
        invalid += none as usize;
        assert_eq!(standard.is_dead(&idx, DesignSpace::ALL_AXES), none, "{idx:?}");
    }
    assert!(invalid > 0, "the sample reaches invalid points");
}

#[test]
fn standard_space_dead_partials_have_no_valid_completion_sampled() {
    // Completions are enumerated exhaustively when few, and sampled
    // otherwise.
    const MAX_COMPLETIONS: usize = 4096;
    let space = DesignSpace::standard();
    let axes = space.num_axes();
    let mut rng = StdRng::seed_from_u64(0x5A3E);
    let mut dead_seen = 0usize;
    for _ in 0..600 {
        let mask: u32 = rng.gen_range(0..=DesignSpace::ALL_AXES);
        let partial: Vec<usize> = (0..axes).map(|a| rng.gen_range(0..space.axis_len(a))).collect();
        if !space.is_dead(&partial, mask) {
            continue;
        }
        dead_seen += 1;
        let free: Vec<usize> = (0..axes).filter(|a| mask & (1 << a) == 0).collect();
        let completions: usize = free.iter().map(|&a| space.axis_len(a)).product();
        let mut idx = partial.clone();
        if completions <= MAX_COMPLETIONS {
            for k in 0..completions {
                let mut rest = k;
                for &a in &free {
                    idx[a] = rest % space.axis_len(a);
                    rest /= space.axis_len(a);
                }
                assert!(space.config_at(&idx, MODEL).is_none(), "{partial:?} {mask:#b} → {idx:?}");
            }
        } else {
            for _ in 0..MAX_COMPLETIONS {
                for &a in &free {
                    idx[a] = rng.gen_range(0..space.axis_len(a));
                }
                assert!(space.config_at(&idx, MODEL).is_none(), "{partial:?} {mask:#b} → {idx:?}");
            }
        }
    }
    assert!(dead_seen > 20, "the sample reaches dead partial assignments ({dead_seen})");
}
