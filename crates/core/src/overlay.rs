//! The delta algebra of a refresh: how one view group's output change is
//! computed from the changes of its inputs.
//!
//! A group's output change decomposes exactly (by linearity of the
//! aggregates in each relation and in each incoming view) as
//!
//! ```text
//! ΔF = F(ΔR, V_old)                        — the seed contribution
//!    + F(R_new, V_new) - F(R_new, V_old)   — the propagation
//! ```
//!
//! The seed contribution is a plain scan of the relation's delta partitions
//! against the retained (old) incoming views ([`scan_partition`]). The
//! propagation ([`propagate`]) scans the *updated* relation with the changed
//! incoming views overlaid by their signed deltas and every term that
//! references no changed view masked to zero: each product term references
//! each child view at most once, so the output delta is jointly linear in
//! the changed views and one combined scan suffices — unless some term
//! multiplies two *different* changed views together (possible only for
//! multi-relation transactions), in which case the scan telescopes: step
//! `t` charges the `t`-th changed view's delta with earlier changed views at
//! their NEW state and later ones still OLD, and the steps sum exactly to
//! the total change.
//!
//! # What a propagation scan reads
//!
//! A scan's *charged* views are the incoming views it resolves to their
//! signed deltas: every changed view for the combined scan, only the step's
//! own view for a telescoped step. A row of the relation can contribute only
//! if its key hits the delta of some charged view: every unmasked term
//! references a charged view, a per-depth view probe that misses zeroes the
//! term's register, and a view with extra keys whose entry list is missing
//! emits nothing. Whether a row hits depends only on its values in the
//! view's bound columns — join attributes fixed at or above the view's probe
//! depth — so each innermost range of the trie is selected whole or not at
//! all. The scan therefore runs over just the selected rows ([`select_rows`]):
//! one [`Relation::semi_join`] of the relation with the charged deltas' keys,
//! one probe per charged view, the same primitive
//! [`PreparedBatch::restrict`](crate::PreparedBatch::restrict) reduces a join
//! tree with. The relation is sorted, the selection keeps trie order, and the
//! same ranges are visited in the same order with the same additions into
//! every output — bit-identical to scanning the whole relation, at a cost of
//! one pass over the bound columns plus a scan of Σ degree(changed key) rows,
//! the per-update bound of Berkholz et al. (FO+MOD under updates).

use crate::error::EngineError;
use crate::exec::execute_group_scan;
use crate::plan::{DepthUpdate, Emit, GroupPlan};
use crate::view::{ComputedView, ViewId, ViewSource};
use lmfao_data::{FxHashMap, FxHashSet, KeySet, Relation};
use lmfao_expr::DynamicRegistry;
use std::sync::Arc;

/// The retained (old) view state a refresh reads.
type Retained = FxHashMap<ViewId, Arc<ComputedView>>;

/// One group scan's outputs, in plan output order.
type GroupOutput = Vec<(ViewId, ComputedView)>;

/// Resolves incoming views during a propagation scan: changed views resolve
/// to their signed deltas, unchanged views to the retained full results.
struct DeltaOverlay<'a, D> {
    full: &'a Retained,
    deltas: &'a D,
}

impl<D: ViewSource> ViewSource for DeltaOverlay<'_, D> {
    fn view_result(&self, id: ViewId) -> Option<&ComputedView> {
        self.deltas
            .view_result(id)
            .or_else(|| self.full.view_result(id))
    }
}

/// Resolves incoming views during one telescoped propagation step: the
/// current view resolves to its signed delta, views charged in *earlier*
/// steps to their staged NEW state, and everything else to the retained OLD
/// state. Summing the steps telescopes exactly to the group's total change.
struct TelescopeOverlay<'a, D> {
    full: &'a Retained,
    staged: &'a FxHashMap<ViewId, ComputedView>,
    deltas: &'a D,
    current: ViewId,
    earlier: &'a FxHashSet<ViewId>,
}

impl<D: ViewSource> ViewSource for TelescopeOverlay<'_, D> {
    fn view_result(&self, id: ViewId) -> Option<&ComputedView> {
        if id == self.current {
            self.deltas.view_result(id)
        } else if self.earlier.contains(&id) {
            self.staged.get(&id)
        } else {
            self.full.view_result(id)
        }
    }
}

/// Runs a seed group's plan over one delta partition (already sorted into
/// the plan's trie order), skipping the scan entirely for empty partitions.
pub(crate) fn scan_partition<V: ViewSource>(
    partition: &Relation,
    plan: &GroupPlan,
    computed: &V,
    dynamics: &DynamicRegistry,
) -> Result<GroupOutput, EngineError> {
    if partition.is_empty() {
        return Ok(plan
            .outputs
            .iter()
            .map(|o| {
                (
                    o.view,
                    ComputedView::new(o.key_attrs.clone(), o.num_aggregates),
                )
            })
            .collect());
    }
    execute_group_scan(partition, plan, computed, dynamics, None, None)
}

/// The propagation scans of one group: the outputs of every scan executed
/// (their sum is the group's propagated change) and the rows they read.
pub(crate) struct Propagation {
    /// One output set per scan: a single combined scan, or one per
    /// telescoped step.
    pub scans: Vec<GroupOutput>,
    /// Rows fed to the scans: each scan's selection, or the whole relation
    /// when it could not be selected.
    pub rows_scanned: usize,
}

/// The propagation scans of one group: charges the deltas of its changed
/// incoming views (`changed_incoming[i]` flags `plan.incoming[i]`, `deltas`
/// resolves a changed view to its signed delta) against the rows of the
/// *updated* relation that their keys hit.
pub(crate) fn propagate<D: ViewSource>(
    plan: &GroupPlan,
    changed_incoming: &[bool],
    relation: &Relation,
    retained: &Retained,
    deltas: &D,
    dynamics: &DynamicRegistry,
) -> Result<Propagation, EngineError> {
    let mut out = Propagation {
        scans: Vec::new(),
        rows_scanned: 0,
    };
    if !multi_changed_terms(plan, changed_incoming) {
        // No term references two changed views, so the output delta is
        // jointly linear in them: one combined scan with every changed view
        // overlaid by its delta and every affected slot unmasked.
        let overlay = DeltaOverlay {
            full: retained,
            deltas,
        };
        scan_charged(
            plan,
            relation,
            &overlay,
            changed_incoming,
            dynamics,
            &mut out,
        )?;
        return Ok(out);
    }

    // Telescope. The NEW states are built locally from old + delta, folded
    // exactly as the commit folds the published state (recomputed per group;
    // only the rare multi-changed-term shape pays this).
    let steps: Vec<(usize, ViewId)> = plan
        .incoming
        .iter()
        .enumerate()
        .filter(|&(i, _)| changed_incoming[i])
        .map(|(i, inc)| (i, inc.view))
        .collect();
    let mut staged: FxHashMap<ViewId, ComputedView> = FxHashMap::default();
    for &(_, vid) in &steps {
        staged.entry(vid).or_insert_with(|| {
            let d = deltas.view_result(vid).expect("changed view has a delta");
            let mut nv = retained.get(&vid).map_or_else(
                || ComputedView::new(d.key_attrs.clone(), d.num_aggregates),
                |cv| (**cv).clone(),
            );
            nv.fold_delta(d);
            nv
        });
    }
    let mut earlier: FxHashSet<ViewId> = FxHashSet::default();
    for &(idx, vid) in &steps {
        let mut one_hot = vec![false; plan.incoming.len()];
        one_hot[idx] = true;
        let overlay = TelescopeOverlay {
            full: retained,
            staged: &staged,
            deltas,
            current: vid,
            earlier: &earlier,
        };
        scan_charged(plan, relation, &overlay, &one_hot, dynamics, &mut out)?;
        earlier.insert(vid);
    }
    Ok(out)
}

/// One propagation scan whose charged views (`charged[i]` flags
/// `plan.incoming[i]`) resolve through `overlay` to their deltas: every slot
/// referencing no charged view is masked, and only the rows [`select_rows`]
/// keeps are read. Appends the scan's outputs and row count to `out`.
fn scan_charged<V: ViewSource>(
    plan: &GroupPlan,
    relation: &Relation,
    overlay: &V,
    charged: &[bool],
    dynamics: &DynamicRegistry,
    out: &mut Propagation,
) -> Result<(), EngineError> {
    let selected = select_rows(plan, relation, charged, overlay);
    let rows = selected.as_ref().unwrap_or(relation);
    let mask = active_slots(plan, charged);
    out.scans.push(execute_group_scan(
        rows,
        plan,
        overlay,
        dynamics,
        None,
        Some(&mask),
    )?);
    out.rows_scanned += rows.len();
    Ok(())
}

/// The rows of `relation` (sorted in `plan`'s trie order) whose key hits the
/// delta of some charged view (`charged[i]` flags `plan.incoming[i]`;
/// `deltas` resolves a charged view to its delta): a [`Relation::semi_join`]
/// with one probe per charged view, gathered in order into a relation of the
/// same schema — the only rows that can contribute to the scan (see the
/// module docs). `None` means "scan the whole relation": a charged view has
/// no bound key, or every row is selected.
fn select_rows<V: ViewSource>(
    plan: &GroupPlan,
    relation: &Relation,
    charged: &[bool],
    deltas: &V,
) -> Option<Relation> {
    let mut probes = Vec::new();
    for (inc, _) in plan.incoming.iter().zip(charged).filter(|&(_, &c)| c) {
        if inc.bound.is_empty() {
            return None;
        }
        let hits: KeySet = deltas
            .view_result(inc.view)?
            .iter()
            .map(|(key, _)| inc.bound_positions.iter().map(|&p| key[p]).collect())
            .collect();
        let cols = inc.bound.iter().map(|&d| plan.attr_order_cols[d]).collect();
        probes.push((cols, hits));
    }
    relation.semi_join(&probes)
}

/// For every term slot of `plan`, the changed incoming views it references
/// (as indices into `plan.incoming`), passed to `note(slot, incoming)`;
/// stops early when `note` returns `true`.
fn changed_refs(
    plan: &GroupPlan,
    changed_incoming: &[bool],
    mut note: impl FnMut(usize, usize) -> bool,
) -> bool {
    for update in plan.programs.iter().flatten() {
        if let DepthUpdate::ScalarView { slot, incoming, .. } = *update {
            let (slot, incoming) = (slot as usize, incoming as usize);
            if changed_incoming[incoming] && note(slot, incoming) {
                return true;
            }
        }
    }
    for output in &plan.outputs {
        for entry in &output.terms {
            // A plain register term references no view with extra keys.
            let Emit::General(g) = entry.emit else {
                continue;
            };
            let term = &output.general[g as usize];
            for &(view, _) in &term.extra_refs {
                let inc = term.extra_views[view];
                if changed_incoming[inc] && note(entry.slot as usize, inc) {
                    return true;
                }
            }
        }
    }
    false
}

/// True if some term slot of `plan` multiplies together two *different*
/// changed incoming views — the one shape whose output delta is not jointly
/// linear in the changed views, forcing the telescoped propagation.
fn multi_changed_terms(plan: &GroupPlan, changed_incoming: &[bool]) -> bool {
    let mut seen: Vec<Option<usize>> = vec![None; plan.num_slots];
    changed_refs(plan, changed_incoming, |slot, inc| {
        *seen[slot].get_or_insert(inc) != inc
    })
}

/// The term slots of `plan` that reference at least one changed incoming
/// view — the only terms that can contribute to the group's output delta
/// when changed views are overlaid with their deltas. Everything else is
/// masked to zero.
fn active_slots(plan: &GroupPlan, changed_incoming: &[bool]) -> Vec<bool> {
    let mut active = vec![false; plan.num_slots];
    changed_refs(plan, changed_incoming, |slot, _| {
        active[slot] = true;
        false
    });
    active
}
