//! The Parallelization layer: morsel-driven execution of view groups.
//!
//! LMFAO parallelizes along two axes (Section 1.2): **task parallelism** —
//! view groups that do not depend on each other run concurrently — and
//! **domain parallelism** — the relation scanned by a group is decomposed
//! into row ranges whose partial results merge by element-wise addition
//! (valid because every view aggregate is a sum over the scanned tuples).
//!
//! Both axes are one scheduler, the crate-internal `sched` module: a
//! dependency-counted ready queue over a DAG whose nodes split into indexed
//! parts. It has three clients. [`execute_all`] runs the groups of a
//! [`Grouping`] as nodes and the [`MORSEL_ROWS`]-row *morsels* of each
//! group's scan as parts: a group becomes runnable the moment its last
//! dependency finishes — there is no inter-wave barrier — and workers stay
//! busy on skewed groups instead of idling behind one long partition. The
//! crate-internal `scan_morsels` runs one maintenance scan as a single node
//! of morsels. The commit frontier walk of [`crate::maintain`] runs the
//! affected groups as single-part nodes.
//!
//! **Determinism.** The worker that finishes a group's last morsel folds the
//! morsel partials in morsel-index order, and every view is produced by
//! exactly one group — so the result of a run does not depend on thread
//! timing. For a fixed [`MORSEL_ROWS`] the merged float sums are identical
//! across all thread counts `> 1`; they can differ from `threads = 1` (one
//! unsplit scan per group, on the calling thread) only by float-addition
//! reassociation at morsel boundaries, which is exact — bit-identical — for
//! integer-valued aggregates within 2⁵³ (counts, and all generated bench
//! measures).
//!
//! Worker panics surface as [`EngineError::WorkerPanicked`] instead of
//! aborting the process; the first error (panic or typed) cancels the
//! remaining queue — for every client alike.

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::exec::{execute_group, execute_group_scan};
use crate::group::Grouping;
use crate::plan::GroupPlan;
use crate::sched::{self, Done};
use crate::view::{ComputedView, ViewId, ViewSource};
use lmfao_data::{Database, FxHashMap, Relation};
use lmfao_expr::DynamicRegistry;
use std::ops::Range;

/// Rows per morsel: large enough that per-morsel overhead (trie range setup,
/// partial-map allocation) is negligible, small enough that 8+ workers share
/// even a single skewed group scan.
pub const MORSEL_ROWS: usize = 65_536;

/// The result of one group scan (or of one morsel of it): a computed view
/// per output of the group's plan, in plan output order.
type GroupOutput = Vec<(ViewId, ComputedView)>;

/// Folds the next morsel's partial into the accumulated one, view by view
/// (both are in plan output order).
fn merge_partials(acc: &mut GroupOutput, next: GroupOutput) {
    for ((vid, a), (nvid, b)) in acc.iter_mut().zip(next) {
        debug_assert_eq!(*vid, nvid);
        a.merge_from(b);
    }
}

/// Number of morsels of a `rows`-row scan (at least one, so empty relations
/// still run their group once and produce the empty output views).
fn morsel_count(rows: usize) -> usize {
    rows.div_ceil(MORSEL_ROWS).max(1)
}

/// The row range of part `part` of `of` of a `rows`-row scan: morsel `part`
/// of a split scan, the whole relation (`None`) of an unsplit one.
fn morsel_range(rows: usize, part: usize, of: usize) -> Option<Range<usize>> {
    (of > 1).then(|| {
        let start = part * MORSEL_ROWS;
        start..rows.min(start + MORSEL_ROWS)
    })
}

/// Resolves a view through the published output of the group producing it.
struct Upstream<'a> {
    grouping: &'a Grouping,
    done: &'a Done<GroupOutput>,
}

impl ViewSource for Upstream<'_> {
    fn view_result(&self, id: ViewId) -> Option<&ComputedView> {
        let produced = self.done.get(*self.grouping.group_of_view.get(&id)?)?;
        produced.iter().find(|(v, _)| *v == id).map(|(_, cv)| cv)
    }
}

/// Executes all groups of a grouping in dependency order (task parallelism
/// across ready groups, domain parallelism within each scan). With
/// `threads = 1` groups run one unsplit scan each on the calling thread, in
/// topological order — the reference execution the parallel results are
/// measured against. Returns the computed result of every view.
pub fn execute_all(
    db: &Database,
    plans: &[GroupPlan],
    grouping: &Grouping,
    dynamics: &DynamicRegistry,
    config: &EngineConfig,
) -> Result<FxHashMap<ViewId, ComputedView>, EngineError> {
    let rows: Vec<usize> = plans
        .iter()
        .map(|p| db.relation(&p.relation).map_or(0, Relation::len))
        .collect();
    let outputs = sched::run(
        &grouping.dependencies,
        |gid| morsel_count(rows[gid]),
        config.threads,
        |gid, part, of, done| {
            let upstream = Upstream { grouping, done };
            let range = morsel_range(rows[gid], part, of);
            execute_group(db, &plans[gid], &upstream, dynamics, range)
        },
        merge_partials,
    )?;
    Ok(outputs.into_iter().flatten().collect())
}

/// Morsel-parallel variant of [`execute_group_scan`] for the maintenance
/// layer's full-relation propagation scans: one scheduler node whose parts
/// are the scan's [`MORSEL_ROWS`]-row morsels, folded in morsel-index order
/// (same determinism guarantee as [`execute_all`]). Single-morsel scans and
/// `threads = 1` run unsplit on the calling thread.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_morsels<V: ViewSource + Sync>(
    relation: &Relation,
    num_attrs: usize,
    plan: &GroupPlan,
    computed: &V,
    dynamics: &DynamicRegistry,
    slot_mask: Option<&[bool]>,
    threads: usize,
) -> Result<GroupOutput, EngineError> {
    let rows = relation.len();
    let mut output = sched::run(
        &[Vec::new()],
        |_| morsel_count(rows),
        threads,
        |_, part, of, _| {
            let range = morsel_range(rows, part, of);
            execute_group_scan(
                relation, num_attrs, plan, computed, dynamics, range, slot_mask,
            )
        },
        merge_partials,
    )?;
    Ok(output.pop().expect("one node, one output"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmfao_data::{AttrId, Value};

    #[test]
    fn morsel_ranges_cover_the_scan_without_overlap() {
        for rows in [
            0,
            1,
            MORSEL_ROWS - 1,
            MORSEL_ROWS,
            MORSEL_ROWS + 1,
            1_000_000,
        ] {
            let n = morsel_count(rows);
            assert!(n >= 1);
            let mut covered = 0;
            let mut prev_end = 0;
            for m in 0..n {
                // An unsplit scan covers the whole relation.
                let r = morsel_range(rows, m, n).unwrap_or(0..rows);
                assert_eq!(r.start, prev_end);
                covered += r.len();
                prev_end = r.end;
            }
            assert_eq!(covered, rows, "rows = {rows}");
            assert_eq!(prev_end, rows);
        }
    }

    #[test]
    fn merge_partials_sums_view_by_view_in_output_order() {
        let mut a = ComputedView::new(vec![AttrId(0)], 1);
        a.add(vec![Value::Int(1)], &[1.0]);
        let mut acc = vec![
            (ViewId(0), a),
            (ViewId(1), ComputedView::new(vec![AttrId(1)], 1)),
        ];
        let mut b = ComputedView::new(vec![AttrId(0)], 1);
        b.add(vec![Value::Int(1)], &[2.0]);
        let mut c = ComputedView::new(vec![AttrId(1)], 1);
        c.add(vec![Value::Int(9)], &[5.0]);
        merge_partials(&mut acc, vec![(ViewId(0), b), (ViewId(1), c)]);
        assert_eq!(acc.len(), 2);
        assert_eq!(acc[0].1.get(&[Value::Int(1)]).unwrap(), &[3.0]);
        assert_eq!(acc[1].1.get(&[Value::Int(9)]).unwrap(), &[5.0]);
    }
}
