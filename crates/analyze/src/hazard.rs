//! Pass 3 — intra-sweep hazard detection.
//!
//! A tape is executed once per cell of a sweep, in an order the executor
//! is free to choose (serial loop, per-thread slabs of the outer loop, GPU
//! grid). Jacobi discipline — no cell may read what another cell of the *same*
//! sweep writes — is what makes every order equivalent. The race detector
//! flags any (store, load) pair on the same (field, component) whose
//! offsets differ: cell `c` writes `c + store_off` while cell
//! `c + store_off - load_off` reads the same address. Split kernel groups
//! additionally must touch pairwise-disjoint store sets, the condition for
//! fusing them into one sweep.

use crate::diag::{DiagKind, Diagnostic};
use pf_ir::{Tape, TapeOp};
use std::collections::BTreeSet;

/// Detect write/read races and Jacobi-discipline violations inside one
/// kernel's sweep.
pub fn check_hazards(tape: &Tape) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let diag = |i: usize, kind: DiagKind| Diagnostic::new(&tape.name, Some(i), kind);

    let stores: Vec<(usize, u16, u16, [i16; 3])> = tape
        .instrs
        .iter()
        .enumerate()
        .filter_map(|(i, op)| match *op {
            TapeOp::Store {
                field, comp, off, ..
            } => Some((i, field, comp, off)),
            _ => None,
        })
        .collect();
    let loads: Vec<(usize, u16, u16, [i16; 3])> = tape
        .instrs
        .iter()
        .enumerate()
        .filter_map(|(i, op)| match *op {
            TapeOp::Load { field, comp, off } => Some((i, field, comp, off)),
            _ => None,
        })
        .collect();

    let name_of = |slot: u16| {
        tape.fields
            .get(slot as usize)
            .map(|f| f.name())
            .unwrap_or_else(|| format!("slot{slot}"))
    };

    // Write/read races and same-cell read-after-write.
    let mut reported_pairs = BTreeSet::new();
    let mut raced: BTreeSet<u16> = BTreeSet::new();
    for &(si, sf, sc, soff) in &stores {
        for &(li, lf, lc, loff) in &loads {
            if sf != lf || sc != lc {
                continue;
            }
            if soff != loff {
                // Distinct offsets on the same component: some pair of
                // sweep cells collides on one address.
                raced.insert(sf);
                if reported_pairs.insert((sf, sc, soff, loff)) {
                    out.push(diag(
                        si,
                        DiagKind::IntraSweepHazard {
                            field: name_of(sf),
                            comp: sc,
                            store_off: soff,
                            load_off: loff,
                        },
                    ));
                }
            } else if li > si {
                // Same cell, load after store: reads mutated memory, not
                // the SSA value.
                raced.insert(sf);
                out.push(diag(
                    li,
                    DiagKind::StoreThenLoad {
                        field: name_of(sf),
                        comp: sc,
                        off: soff,
                    },
                ));
            }
        }
    }

    // Field-granularity Jacobi discipline: the executor refuses any kernel
    // that reads and writes the same field, even on disjoint components.
    // Only warn when no hard race was already reported for the field.
    let written: BTreeSet<u16> = stores.iter().map(|&(_, f, _, _)| f).collect();
    let read: BTreeSet<u16> = loads.iter().map(|&(_, f, _, _)| f).collect();
    for &f in written.intersection(&read) {
        if !raced.contains(&f) {
            let i = stores.iter().find(|s| s.1 == f).map(|s| s.0);
            out.push(Diagnostic::new(
                &tape.name,
                i,
                DiagKind::JacobiViolation { field: name_of(f) },
            ));
        }
    }

    // Duplicate stores to the identical target (deterministic, but almost
    // always an authoring bug).
    let mut seen = BTreeSet::new();
    for &(i, f, c, off) in &stores {
        if !seen.insert((f, c, off)) {
            out.push(diag(
                i,
                DiagKind::DuplicateStore {
                    field: name_of(f),
                    comp: c,
                    off,
                },
            ));
        }
    }
    out
}

/// Validate that the kernels of a split group write pairwise-disjoint
/// (field, component) sets — the precondition for fusing the group into a
/// single sweep. Diagnostics are attributed to the later kernel of each
/// overlapping pair.
pub fn check_split_disjoint(tapes: &[&Tape]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let store_set = |t: &Tape| -> BTreeSet<(String, u16)> {
        t.instrs
            .iter()
            .filter_map(|op| match *op {
                TapeOp::Store { field, comp, .. } => {
                    t.fields.get(field as usize).map(|f| (f.name(), comp))
                }
                _ => None,
            })
            .collect()
    };
    let sets: Vec<BTreeSet<(String, u16)>> = tapes.iter().map(|t| store_set(t)).collect();
    for a in 0..tapes.len() {
        for b in a + 1..tapes.len() {
            for (field, comp) in sets[a].intersection(&sets[b]) {
                out.push(Diagnostic::new(
                    &tapes[b].name,
                    None,
                    DiagKind::OverlappingSplitStores {
                        other_kernel: tapes[a].name.clone(),
                        field: field.clone(),
                        comp: *comp,
                    },
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{load, raw_tape, store};

    #[test]
    fn jacobi_kernel_is_clean() {
        // Reads field 0, writes field 1 — the canonical sweep shape.
        let t = raw_tape(vec![
            load(0, 0, [-1, 0, 0]),
            load(0, 0, [1, 0, 0]),
            store(1, 0, [0, 0, 0], 1),
        ]);
        assert!(check_hazards(&t).is_empty());
    }

    #[test]
    fn write_read_offset_mismatch_is_a_race() {
        // Cell c stores (0, comp0, c) while cell c+1 loads (0, comp0, c).
        let t = raw_tape(vec![load(0, 0, [-1, 0, 0]), store(0, 0, [0, 0, 0], 0)]);
        let d = check_hazards(&t);
        assert!(
            d.iter().any(|d| matches!(
                d.kind,
                DiagKind::IntraSweepHazard {
                    store_off: [0, 0, 0],
                    load_off: [-1, 0, 0],
                    ..
                }
            )),
            "{d:?}"
        );
    }

    #[test]
    fn store_then_load_of_same_cell_is_flagged() {
        let t = raw_tape(vec![
            load(1, 0, [0, 0, 0]),
            store(0, 0, [0, 0, 0], 0),
            load(0, 0, [0, 0, 0]),
            store(1, 1, [0, 0, 0], 2),
        ]);
        let d = check_hazards(&t);
        assert!(
            d.iter()
                .any(|d| matches!(d.kind, DiagKind::StoreThenLoad { .. }) && d.instr == Some(2)),
            "{d:?}"
        );
    }

    #[test]
    fn load_before_store_of_same_cell_is_only_a_jacobi_warning() {
        let t = raw_tape(vec![load(0, 0, [0, 0, 0]), store(0, 0, [0, 0, 0], 0)]);
        let d = check_hazards(&t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(matches!(d[0].kind, DiagKind::JacobiViolation { .. }));
        assert!(!d[0].is_error());
    }

    #[test]
    fn duplicate_store_warns() {
        let t = raw_tape(vec![store(0, 0, [0, 0, 0], 0), store(0, 0, [0, 0, 0], 0)]);
        let d = check_hazards(&t);
        assert!(d
            .iter()
            .any(|d| matches!(d.kind, DiagKind::DuplicateStore { .. }) && d.instr == Some(1)));
    }

    #[test]
    fn split_groups_must_store_disjointly() {
        let a = raw_tape(vec![store(0, 0, [0, 0, 0], 0)]);
        let mut b = raw_tape(vec![store(0, 0, [0, 0, 0], 0)]);
        b.name = "b".into();
        let mut c = raw_tape(vec![store(0, 1, [0, 0, 0], 0)]);
        c.name = "c".into();
        assert!(check_split_disjoint(&[&a, &c]).is_empty());
        let d = check_split_disjoint(&[&a, &b]);
        assert!(
            d.iter()
                .any(|d| matches!(d.kind, DiagKind::OverlappingSplitStores { .. })),
            "{d:?}"
        );
    }
}
