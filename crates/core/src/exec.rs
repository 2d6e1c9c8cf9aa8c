//! Execution of multi-output group plans.
//!
//! One call to [`execute_group`] computes *all* views of a group in a single
//! scan of the group's relation, following the plan built by [`crate::plan`]:
//! a multi-way nested loop over the attribute order (one loop per join
//! attribute, implemented over the sorted relation's trie ranges), with
//! per-depth partial-product registers, lookups into incoming views at the
//! depth where their keys are bound, shared local expressions summed once per
//! innermost range, and inner loops over the matching entries of incoming
//! views that carry extra key attributes. This mirrors the specialized C++
//! code the paper generates (Figure 4), expressed as a register program
//! instead of generated source.
//!
//! **The plan says where every value comes from.** The scan maps no
//! attribute to anything: every probe key, factor argument and output key
//! part is a [`KeySource`] the planner resolved — a bound depth, a column of
//! the scanned relation read at the current row, or a key position of an
//! entry of the current combination — and a factor reads its `i`-th argument
//! from the `i`-th source ([`ResolvedFactor`]). A term is emitted per row of
//! the innermost range ([`TermPlan::per_row`]) when its key has a row-column
//! part or when a factor spanning relations reads a row column
//! ([`TermPlan::row_factors`]); both take the one per-row path of
//! `emit_keyed`.
//!
//! **The innermost loop walks a flat term table.** The planner decided each
//! term's emit path ([`Emit`]), so per innermost binding the scan makes one
//! pass over every output's [`OutputPlan::terms`], compact records of slot,
//! local expression and aggregate in (aggregate, term) order. A term whose
//! partial product is exactly 0 is skipped. A plain register term
//! ([`Emit::Register`]) adds `prefix[slot] · local[local_expr]` to its
//! register row when that is nonzero, and does nothing else. Every other term
//! ([`Emit::General`]) goes to `emit_combinations` or `emit_keyed` with its
//! [`TermPlan`]. Each entry receives the same additions in the same order as
//! a walk of the aggregates' term lists would give it.
//!
//! **Idle depths.** Entering a binding probes the incoming views whose probe
//! depth it is ([`GroupPlan::probes_at`]), each once, then copies the
//! registers of the parent's source and applies the depth's register
//! program. A depth with an empty program is idle: it neither copies nor
//! tests registers, and the scan reads the registers of its
//! [`GroupPlan::prefix_source`] instead.
//!
//! **Output registers.** An output whose key parts are all bound join
//! attributes ([`OutputPlan::register_depth`]) keeps one key for the whole
//! binding of its register depth, so it is accumulated in a register row:
//! on the first nonzero contribution under a binding the key is built once
//! and the output's existing entry for it (or a zero row) is swapped into
//! the register; every term then adds to `row[aggregate]`; when the binding
//! ends (the child at that depth returns, or the scan ends for a scalar
//! output) the row is swapped back, or inserted if the key was new. The
//! entry receives the same float additions in the same order, starting from
//! the same value, as a per-contribution hash update would give it — also
//! for a key that recurs under other outer bindings — so the results are
//! bit-identical to that, and the output map sees the same inserts in the
//! same order. A keyed output gains an entry iff a nonzero contribution
//! reached it; a scalar output gets none when its row ends all exactly 0.
//! Keys with a [`KeySource::RowColumn`] or [`KeySource::Extra`] part change
//! inside the innermost loop (per row, per entry combination) and are added
//! entry by entry.
//!
//! **The keyed path allocates per new entry only.** A row-column or
//! extra-key output key is written into a scratch buffer of the scan and
//! copied into the output map only when the key is new
//! ([`ComputedView::add_single`]). An incoming view with extra key
//! attributes is indexed by the bound part of its key over borrowed
//! `(key, payload)` pairs of the view, so only a new bound key allocates.
//! Probe keys and the odometer over a term's entry combinations live in
//! scan scratch as well. None of this changes which float is added to which
//! entry, or in what order: the map receives the same inserts in the same
//! order as with a fresh key per update, and each index list keeps the
//! view's iteration order, so combinations are visited as before and the
//! results are bit-identical.
//!
//! This is the engine's only executor, and its per-row loop (`row_product`)
//! the only evaluator of a product of local factors.
//! [`EngineConfig::specialization`](crate::config::EngineConfig) does not
//! select another algorithm: it decides whether each local factor is lowered
//! against the relation's typed columns once per scan (`compile_factor`) or
//! stays `FastFactor::Slow` and goes through a generic [`Value`] read and
//! [`ScalarFunction::evaluate`] on every row. Both produce the same bits.
//!
//! **Rejected rows contribute exactly 0.** A factor product is evaluated left
//! to right with the indicator factors first, and is abandoned at the first
//! exact zero. A row an indicator rejects therefore adds `0.0` to every sum
//! whatever its other columns hold — a `NaN` or `±inf` measure on a rejected
//! row never reaches the result — for every range length and with lowering
//! on or off.

use crate::error::EngineError;
use crate::plan::{
    DepthUpdate, Emit, GroupPlan, IncomingPlan, KeySource, OutputPlan, ResolvedFactor, TermEntry,
    TermPlan,
};
use crate::view::{ComputedView, ViewId, ViewSource};
use lmfao_data::{AttrId, Column, Database, FxHashMap, Relation, TrieScan, Value};
use lmfao_expr::{CmpOp, DynamicRegistry, ScalarFunction};
use std::cmp::Ordering;
use std::ops::Range;

/// One entry of an incoming view, borrowed from it: its full key (in the
/// view's canonical key order) and its aggregate payload.
type Entry<'a> = (&'a [Value], &'a [f64]);

/// Entries of an indexed incoming view that share one bound key.
type IndexedEntries<'a> = Vec<Entry<'a>>;

/// An incoming view's entries re-indexed by the bound part of its key.
type BoundIndex<'a> = FxHashMap<Vec<Value>, IndexedEntries<'a>>;

/// Runtime representation of an incoming view.
enum IncomingData<'a> {
    /// The view has no extra key attributes: probe its result directly.
    Direct(&'a ComputedView),
    /// The view carries extra key attributes: its entries, borrowed, are
    /// re-indexed by the bound part of the key, in the view's iteration
    /// order.
    Indexed(BoundIndex<'a>),
}

/// Evaluates a resolved factor whose `i`-th argument is `arg(i)`, routing
/// dynamic functions through the registry.
#[inline]
fn eval_factor<S>(
    f: &ResolvedFactor<S>,
    arg: impl Fn(&S) -> Value,
    dynamics: &DynamicRegistry,
) -> f64 {
    let lookup = |a: AttrId| arg(&f.args[a.index()]);
    match &f.factor {
        ScalarFunction::Dynamic { id, attrs } => dynamics.evaluate_attrs(*id, attrs, &lookup),
        other => other.evaluate(&lookup),
    }
}

/// A local-expression factor as the innermost loops evaluate it. The typed
/// variants read native column slices — no [`Value`] is materialized per
/// tuple — and each is bit-for-bit equivalent to evaluating the original
/// [`ScalarFunction`] through the generic `Value` read (float comparisons
/// use [`f64::total_cmp`], exactly like `Value::Double`'s total order).
/// Factors that do not fit a typed shape (dynamic functions, cross-variant
/// indicator thresholds, attributes stored in [`Column::Mixed`]), and every
/// factor of a plan with [`GroupPlan::specialized`] off, are
/// [`FastFactor::Slow`].
enum FastFactor<'a> {
    /// `X` over a float column.
    FloatIdent(&'a [f64]),
    /// `X` over an int column.
    IntIdent(&'a [i64]),
    /// `X^a` over a float column.
    FloatPow(&'a [f64], i32),
    /// `X^a` over an int column.
    IntPow(&'a [i64], i32),
    /// `1[X op t]` over a float column with a double threshold.
    FloatCmp(&'a [f64], CmpOp, f64),
    /// `1[X op t]` over an int column with an int threshold.
    IntCmp(&'a [i64], CmpOp, i64),
    /// `1[X op t]` over a dictionary column with a categorical threshold.
    DictCmp(&'a [u32], CmpOp, u32),
    /// Generic evaluation through the `Value` read of its columns.
    Slow(&'a ResolvedFactor<usize>),
}

/// Whether `op` holds for an ordering produced by the column's native total
/// order (the same order [`Value`] comparisons use).
#[inline]
fn cmp_holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
    }
}

/// Lowers one local factor (its arguments are column positions) against the
/// relation's columns, falling back to the generic path when the factor
/// shape or the column type does not allow a typed loop.
fn compile_factor<'a>(f: &'a ResolvedFactor<usize>, relation: &'a Relation) -> FastFactor<'a> {
    let column = |a: &AttrId| relation.column(f.args[a.index()]);
    match &f.factor {
        ScalarFunction::Identity(a) => match column(a) {
            Column::Float(v) => FastFactor::FloatIdent(v),
            Column::Int(v) => FastFactor::IntIdent(v),
            _ => FastFactor::Slow(f),
        },
        ScalarFunction::Power { attr, exponent } => match column(attr) {
            Column::Float(v) => FastFactor::FloatPow(v, *exponent as i32),
            Column::Int(v) => FastFactor::IntPow(v, *exponent as i32),
            _ => FastFactor::Slow(f),
        },
        ScalarFunction::Indicator {
            attr,
            op,
            threshold,
        } => match (column(attr), threshold) {
            (Column::Float(v), Value::Double(t)) => FastFactor::FloatCmp(v, *op, *t),
            (Column::Int(v), Value::Int(t)) => FastFactor::IntCmp(v, *op, *t),
            (Column::Dict { codes, .. }, Value::Cat(t)) => FastFactor::DictCmp(codes, *op, *t),
            _ => FastFactor::Slow(f),
        },
        _ => FastFactor::Slow(f),
    }
}

/// The 0/1 value of an indicator.
#[inline]
fn indicator(holds: bool) -> f64 {
    if holds {
        1.0
    } else {
        0.0
    }
}

/// Evaluates a factor at `row` of `relation`.
#[inline]
fn eval_fast(
    f: &FastFactor<'_>,
    relation: &Relation,
    dynamics: &DynamicRegistry,
    row: usize,
) -> f64 {
    match f {
        FastFactor::FloatIdent(v) => v[row],
        FastFactor::IntIdent(v) => v[row] as f64,
        FastFactor::FloatPow(v, e) => v[row].powi(*e),
        FastFactor::IntPow(v, e) => (v[row] as f64).powi(*e),
        FastFactor::FloatCmp(v, op, t) => indicator(cmp_holds(*op, v[row].total_cmp(t))),
        FastFactor::IntCmp(v, op, t) => indicator(cmp_holds(*op, v[row].cmp(t))),
        FastFactor::DictCmp(v, op, t) => indicator(cmp_holds(*op, v[row].cmp(t))),
        FastFactor::Slow(rf) => eval_factor(rf, |&col| relation.value(row, col), dynamics),
    }
}

/// `init · f₁(row) · … · fₖ(row)`, left to right, abandoned at the first
/// exact zero — the module's rejected-row rule.
#[inline]
fn row_product(factors: &[FastFactor<'_>], init: f64, ctx: &Ctx<'_>, row: usize) -> f64 {
    let mut prod = init;
    for f in factors {
        prod *= eval_fast(f, ctx.relation, ctx.dynamics, row);
        if prod == 0.0 {
            break;
        }
    }
    prod
}

/// Immutable execution context shared across the recursion.
struct Ctx<'a> {
    plan: &'a GroupPlan,
    relation: &'a Relation,
    trie: TrieScan<'a>,
    dynamics: &'a DynamicRegistry,
    incoming: &'a [IncomingData<'a>],
    /// The group's local expressions as factor programs, in
    /// [`GroupPlan::local_exprs`] order: the one part of the plan lowered
    /// per scan, against the scanned relation's column slices.
    local_programs: Vec<Vec<FastFactor<'a>>>,
}

/// Mutable execution state.
struct State<'a> {
    /// Partial-product registers, one vector per depth (0..=depth); an idle
    /// depth's stays empty, its products are its
    /// [`GroupPlan::prefix_source`]'s.
    prefix: Vec<Vec<f64>>,
    /// Per-local-expression sums for the current innermost range.
    local_sums: Vec<f64>,
    /// The probe key of the incoming view being looked up.
    probe_buf: Vec<Value>,
    /// Each direct incoming view's payload for the current binding of its
    /// probe depth (`None`: the probe missed).
    direct: Vec<Option<&'a [f64]>>,
    /// What the emit paths read and write.
    sink: Sink<'a>,
}

/// The part of the scan state that the innermost loop's emit paths use,
/// apart from the partial products and local sums they only read.
struct Sink<'a> {
    /// Values bound at each depth of the attribute order.
    bound: Vec<Value>,
    /// Matching entry lists of indexed incoming views for the current path.
    probed: Vec<Option<&'a IndexedEntries<'a>>>,
    /// Accumulated outputs, one per output plan.
    outputs: Vec<ComputedView>,
    /// One register row per output plan (used by those with a
    /// [`OutputPlan::register_depth`]).
    registers: Vec<Register>,
    /// The key of the output entry being updated per contribution.
    key_buf: Vec<Value>,
    /// The innermost loop's odometer over a term's extra views: their entry
    /// lists, the position in each, and the entries at those positions.
    lists: Vec<&'a [Entry<'a>]>,
    idx: Vec<usize>,
    combo: Vec<Entry<'a>>,
}

/// The register row of one output (the module's "output registers"): while
/// `loaded`, `row` holds the output's entry for `key`, the key of the current
/// binding of the output's register depth.
struct Register {
    /// Whether `row` holds the current binding's entry.
    loaded: bool,
    /// The key of the loaded entry; its buffer is reused across bindings.
    key: Vec<Value>,
    /// The entry's aggregate values.
    row: Vec<f64>,
}

/// Executes a group plan over (a partition of) its relation, returning one
/// computed view per output plan. Partitions may split arbitrary row ranges:
/// results of different partitions merge by element-wise addition because all
/// aggregates are sums over the scanned tuples.
pub fn execute_group<V: ViewSource>(
    db: &Database,
    plan: &GroupPlan,
    computed: &V,
    dynamics: &DynamicRegistry,
    partition: Option<Range<usize>>,
) -> Result<Vec<(ViewId, ComputedView)>, EngineError> {
    let relation = db
        .relation(&plan.relation)
        .map_err(|_| EngineError::UnknownRelation(plan.relation.clone()))?;
    execute_group_scan(relation, plan, computed, dynamics, partition, None)
}

/// The restartable core of [`execute_group`]: runs a group plan over an
/// explicit relation — the plan's base relation, or a *delta partition* of it
/// (the sorted insert/delete rows of a [`lmfao_data::TableDelta`]) — and an
/// optional per-slot mask.
///
/// `slot_mask`, when given, zeroes the partial-product register of every term
/// slot whose flag is `false` before the scan starts, so those terms emit
/// nothing. The maintenance layer uses this to suppress terms that reference
/// no changed incoming view: when incoming views are overlaid with their
/// signed deltas, only masked-in terms contribute to the output delta. What
/// makes such a propagation scan cheap is not the all-zero register pruning
/// (it can only skip a subtree below a probe's depth, after the trie above
/// it was walked) but the relation it is handed: only the rows whose keys
/// hit a delta (the crate-internal `overlay` module).
pub fn execute_group_scan<V: ViewSource>(
    relation: &Relation,
    plan: &GroupPlan,
    computed: &V,
    dynamics: &DynamicRegistry,
    partition: Option<Range<usize>>,
    slot_mask: Option<&[bool]>,
) -> Result<Vec<(ViewId, ComputedView)>, EngineError> {
    let incoming: Vec<IncomingData> = plan
        .incoming
        .iter()
        .map(|inc| prepare_incoming(inc, computed))
        .collect::<Result<_, _>>()?;

    // Each local factor lowered against the typed columns, or left generic
    // when the plan is not specialized.
    let local_programs: Vec<Vec<FastFactor>> = plan
        .local_exprs
        .iter()
        .map(|e| {
            e.factors
                .iter()
                .map(|f| {
                    if plan.specialized {
                        compile_factor(f, relation)
                    } else {
                        FastFactor::Slow(f)
                    }
                })
                .collect()
        })
        .collect();

    let depth = plan.depth();
    let ctx = Ctx {
        plan,
        relation,
        trie: TrieScan::new(relation, plan.attr_order_cols.clone()),
        dynamics,
        incoming: &incoming,
        local_programs,
    };

    let mut state = State {
        prefix: (0..=depth)
            .map(|d| {
                if plan.prefix_source[d] == d {
                    vec![1.0; plan.num_slots]
                } else {
                    Vec::new()
                }
            })
            .collect(),
        local_sums: vec![0.0; plan.local_exprs.len()],
        probe_buf: Vec::new(),
        direct: vec![None; plan.incoming.len()],
        sink: Sink {
            bound: vec![Value::Null; depth],
            probed: vec![None; plan.incoming.len()],
            outputs: plan
                .outputs
                .iter()
                .map(|o| ComputedView::new(o.key_attrs.clone(), o.num_aggregates))
                .collect(),
            registers: plan
                .outputs
                .iter()
                .map(|o| Register {
                    loaded: false,
                    key: Vec::with_capacity(o.key_attrs.len()),
                    row: vec![0.0; o.num_aggregates],
                })
                .collect(),
            key_buf: Vec::new(),
            lists: Vec::new(),
            idx: Vec::new(),
            combo: Vec::new(),
        },
    };

    // Depth-0 program: constants and incoming views with no bound keys, then
    // the optional term mask (maintenance zeroes unaffected terms here).
    apply_program(&ctx, &mut state, 0);
    if let Some(mask) = slot_mask {
        debug_assert_eq!(mask.len(), plan.num_slots);
        for (slot, &active) in mask.iter().enumerate() {
            if !active {
                state.prefix[0][slot] = 0.0;
            }
        }
    }
    let range = partition.unwrap_or(0..relation.len());
    if !all_zero(&state.prefix[0]) || plan.num_slots == 0 {
        recurse(&ctx, &mut state, 0, range);
    }

    store_registers(&ctx, &mut state.sink, 0);

    Ok(plan
        .outputs
        .iter()
        .zip(state.sink.outputs)
        .map(|(o, cv)| (o.view, cv))
        .collect())
}

fn prepare_incoming<'a, V: ViewSource>(
    inc: &IncomingPlan,
    computed: &'a V,
) -> Result<IncomingData<'a>, EngineError> {
    let Some(cv) = computed.view_result(inc.view) else {
        return Err(EngineError::ViewNotComputed(inc.view));
    };
    if !inc.has_extras() {
        return Ok(IncomingData::Direct(cv));
    }
    let mut index: BoundIndex = FxHashMap::default();
    let mut bound_key = Vec::with_capacity(inc.bound_positions.len());
    for (key, aggs) in cv.iter() {
        bound_key.clear();
        bound_key.extend(inc.bound_positions.iter().map(|&p| key[p]));
        let entry = (key.as_slice(), aggs.as_slice());
        match index.get_mut(bound_key.as_slice()) {
            Some(list) => list.push(entry),
            None => {
                index.insert(bound_key.clone(), vec![entry]);
            }
        }
    }
    Ok(IncomingData::Indexed(index))
}

fn all_zero(v: &[f64]) -> bool {
    !v.is_empty() && v.iter().all(|&x| x == 0.0)
}

/// Enters a binding of `depth`: probes the incoming views registered at that
/// depth, then — unless the depth is idle — copies the registers of its
/// parent's source and applies the depth's register program.
fn apply_program<'a>(ctx: &Ctx<'a>, state: &mut State<'a>, depth: usize) {
    let plan = ctx.plan;
    for &i in &plan.probes_at[depth] {
        state.probe_buf.clear();
        let bound = &state.sink.bound;
        let key = plan.incoming[i].bound.iter().map(|&d| bound[d]);
        state.probe_buf.extend(key);
        let key = state.probe_buf.as_slice();
        match &ctx.incoming[i] {
            IncomingData::Direct(cv) => state.direct[i] = cv.get(key),
            IncomingData::Indexed(map) => state.sink.probed[i] = map.get(key),
        }
    }

    if plan.prefix_source[depth] != depth {
        return;
    }
    if depth > 0 {
        let (parents, rest) = state.prefix.split_at_mut(depth);
        rest[0].copy_from_slice(&parents[plan.prefix_source[depth - 1]]);
    }
    let registers = &mut state.prefix[depth];
    for update in &plan.programs[depth] {
        match *update {
            DepthUpdate::Constant { slot, value } => registers[slot as usize] *= value,
            DepthUpdate::Factor { slot, factor } => {
                let factor = &plan.depth_factors[factor as usize];
                let bound = &state.sink.bound;
                registers[slot as usize] *= eval_factor(factor, |&d| bound[d], ctx.dynamics);
            }
            DepthUpdate::ScalarView {
                slot,
                incoming,
                agg,
            } => match state.direct[incoming as usize] {
                Some(values) => registers[slot as usize] *= values[agg as usize],
                None => registers[slot as usize] = 0.0,
            },
        }
    }
}

fn recurse<'a>(ctx: &Ctx<'a>, state: &mut State<'a>, depth: usize, range: Range<usize>) {
    if depth == ctx.plan.depth() {
        process_innermost(ctx, state, range);
        return;
    }
    let child = depth + 1;
    // An idle child holds its parent's registers, which are not all zero.
    let idle = ctx.plan.prefix_source[child] != child;
    for (value, child_range) in ctx.trie.children(depth, range) {
        state.sink.bound[depth] = value;
        apply_program(ctx, state, child);
        if !idle && all_zero(&state.prefix[child]) {
            continue;
        }
        recurse(ctx, state, child, child_range);
        store_registers(ctx, &mut state.sink, child);
    }
}

impl Sink<'_> {
    /// The register row of output `oi` under the current binding of its
    /// register depth, keyed by the values bound at the depths `key`.
    #[inline]
    fn register_row(&mut self, oi: usize, key: &[usize]) -> &mut [f64] {
        if !self.registers[oi].loaded {
            self.load_register(oi, key);
        }
        &mut self.registers[oi].row
    }

    /// Loads output `oi`'s register row on its first use under a binding:
    /// the output's entry for the binding's key is swapped into the row, or
    /// the row is zeroed when the key has no entry yet.
    #[cold]
    fn load_register(&mut self, oi: usize, key: &[usize]) {
        let reg = &mut self.registers[oi];
        reg.loaded = true;
        reg.key.clear();
        reg.key.extend(key.iter().map(|&d| self.bound[d]));
        match self.outputs[oi].data.get_mut(reg.key.as_slice()) {
            Some(entry) => std::mem::swap(entry, &mut reg.row),
            None => reg.row.fill(0.0),
        }
    }
}

/// Stores back the loaded register rows of the outputs whose register depth
/// is `depth`, whose binding is about to change (or, at depth 0, whose scan
/// ended). An existing entry (its slot held the register's spare buffer
/// meanwhile) gets its row swapped back; a new key is inserted, except a
/// scalar output's all-zero row.
fn store_registers(ctx: &Ctx<'_>, sink: &mut Sink<'_>, depth: usize) {
    for &oi in &ctx.plan.registers_at[depth] {
        let reg = &mut sink.registers[oi];
        if !std::mem::take(&mut reg.loaded) {
            continue;
        }
        let data = &mut sink.outputs[oi].data;
        match data.get_mut(reg.key.as_slice()) {
            Some(entry) => std::mem::swap(entry, &mut reg.row),
            None if !reg.key.is_empty() || reg.row.iter().any(|v| *v != 0.0) => {
                data.insert(reg.key.clone(), reg.row.clone());
            }
            None => {}
        }
    }
}

/// Computes the local-expression sums for the innermost range (the
/// `α9`/`α10` local variables of Figure 4): per expression, the sum over the
/// range's rows of its factor product. The empty product is the tuple count.
fn compute_local_sums(ctx: &Ctx<'_>, local_sums: &mut [f64], range: &Range<usize>) {
    for (sum, factors) in local_sums.iter_mut().zip(&ctx.local_programs) {
        *sum = if factors.is_empty() {
            range.len() as f64
        } else {
            let mut acc = 0.0;
            for row in range.clone() {
                acc += row_product(factors, 1.0, ctx, row);
            }
            acc
        };
    }
}

/// The value `src` reads under the current bindings, entry combination and
/// row (only a [`KeySource::RowColumn`] reads `row`).
#[inline]
fn read(ctx: &Ctx<'_>, bound: &[Value], combo: &[Entry<'_>], row: usize, src: KeySource) -> Value {
    match src {
        KeySource::BoundDepth(d) => bound[d],
        KeySource::RowColumn(col) => ctx.relation.value(row, col),
        KeySource::Extra { view, pos } => combo[view].0[pos],
    }
}

/// `value · f₁ · … · fₖ` over `factors` read at `row`, left to right, stopped
/// at the first exact zero (a zero `value` evaluates none of them).
#[inline]
fn times_factors(
    ctx: &Ctx<'_>,
    bound: &[Value],
    combo: &[Entry<'_>],
    row: usize,
    factors: &[ResolvedFactor<KeySource>],
    mut value: f64,
) -> f64 {
    for f in factors {
        if value == 0.0 {
            break;
        }
        value *= eval_factor(f, |&src| read(ctx, bound, combo, row, src), ctx.dynamics);
    }
    value
}

/// The innermost loop: one walk over every output's term table. A term
/// whose partial product is exactly 0 adds nothing; a plain register term
/// adds `prefix · local` to its register row when that is nonzero; every
/// other term goes to the emit path of its [`TermPlan`].
fn process_innermost<'a>(ctx: &Ctx<'a>, state: &mut State<'a>, range: Range<usize>) {
    compute_local_sums(ctx, &mut state.local_sums, &range);
    let plan = ctx.plan;
    let prefix = &state.prefix[plan.prefix_source[plan.depth()]];
    let local_sums = &state.local_sums;
    let sink = &mut state.sink;

    for (oi, output) in plan.outputs.iter().enumerate() {
        for entry in &output.terms {
            let base = prefix[entry.slot as usize];
            if base == 0.0 {
                continue;
            }
            match entry.emit {
                Emit::Register => {
                    let contribution = base * local_sums[entry.local_expr as usize];
                    if contribution != 0.0 {
                        sink.register_row(oi, &output.register_key)[entry.agg as usize] +=
                            contribution;
                    }
                }
                Emit::General(g) => {
                    let term = &output.general[g as usize];
                    let emit = Emission {
                        oi,
                        output,
                        entry,
                        term,
                        local_sums,
                        range: &range,
                    };
                    if term.extra_views.is_empty() {
                        emit_keyed(ctx, sink, &emit, base, &[]);
                    } else {
                        emit_combinations(ctx, sink, &emit, base);
                    }
                }
            }
        }
    }
}

/// One [`Emit::General`] term under the current innermost range: what its
/// emit paths read besides the scan state.
struct Emission<'p> {
    /// Index of the term's output in [`GroupPlan::outputs`].
    oi: usize,
    output: &'p OutputPlan,
    entry: &'p TermEntry,
    term: &'p TermPlan,
    local_sums: &'p [f64],
    range: &'p Range<usize>,
}

/// Emits a term with extra views once per combination of their matching
/// entries, walking the cartesian product of the entry lists with an
/// odometer kept in the sink's scratch vectors. Out of line, like
/// [`emit_keyed`], so that the innermost loop stays small.
#[inline(never)]
fn emit_combinations<'a>(ctx: &Ctx<'a>, sink: &mut Sink<'a>, emit: &Emission<'_>, base: f64) {
    let term = emit.term;
    let mut lists = std::mem::take(&mut sink.lists);
    let mut idx = std::mem::take(&mut sink.idx);
    let mut combo = std::mem::take(&mut sink.combo);
    // Gather the matching entry lists; a missing list means no joining
    // tuples below, hence no contribution.
    lists.clear();
    for &iv in &term.extra_views {
        match sink.probed[iv] {
            Some(list) if !list.is_empty() => lists.push(list),
            _ => break,
        }
    }
    if lists.len() == term.extra_views.len() {
        idx.clear();
        idx.resize(lists.len(), 0);
        loop {
            combo.clear();
            combo.extend(lists.iter().zip(&idx).map(|(l, &i)| l[i]));
            let mut val = base;
            for &(view, agg) in &term.extra_refs {
                val *= combo[view].1[agg];
            }
            if val != 0.0 {
                emit_keyed(ctx, sink, emit, val, &combo);
            }
            if !advance(&mut idx, &lists) {
                break;
            }
        }
    }
    sink.lists = lists;
    sink.idx = idx;
    sink.combo = combo;
}

/// Steps the odometer `idx` over `lists`, the last position fastest; false
/// once every combination has been visited.
fn advance(idx: &mut [usize], lists: &[&[Entry<'_>]]) -> bool {
    for (i, list) in idx.iter_mut().zip(lists).rev() {
        *i += 1;
        if *i < list.len() {
            return true;
        }
        *i = 0;
    }
    false
}

/// Emits the contributions of one [`Emit::General`] term under a fixed
/// entry combination: `value` times its extra factors (read against the
/// combination), then one contribution per row for a term emitted per row
/// ([`TermPlan::per_row`]), its local factors (indicators first) before its
/// row factors; else the range's one, times its local sum. Each is added to
/// the register row, or to its entry when the output has no register. Out
/// of line so that the innermost loop stays small.
#[inline(never)]
fn emit_keyed(
    ctx: &Ctx<'_>,
    sink: &mut Sink<'_>,
    emit: &Emission<'_>,
    value: f64,
    combo: &[Entry<'_>],
) {
    let (term, range) = (emit.term, emit.range);
    let value = times_factors(
        ctx,
        &sink.bound,
        combo,
        range.start,
        &term.extra_factors,
        value,
    );
    if value == 0.0 {
        return;
    }
    let local_expr = emit.entry.local_expr as usize;
    let agg = emit.entry.agg as usize;
    let rows = if term.per_row {
        range.clone()
    } else {
        range.start..range.start + 1
    };
    for row in rows {
        let v = if term.per_row {
            let v = row_product(&ctx.local_programs[local_expr], value, ctx, row);
            times_factors(ctx, &sink.bound, combo, row, &term.row_factors, v)
        } else {
            value * emit.local_sums[local_expr]
        };
        if v == 0.0 {
            continue;
        }
        if emit.output.register_depth.is_some() {
            sink.register_row(emit.oi, &emit.output.register_key)[agg] += v;
        } else {
            sink.key_buf.clear();
            let bound = &sink.bound;
            let key = term
                .key
                .iter()
                .map(|&src| read(ctx, bound, combo, row, src));
            sink.key_buf.extend(key);
            sink.outputs[emit.oi].add_single(&sink.key_buf, agg, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::Engine;
    use crate::group::group_views;
    use crate::plan::{build_group_plan, prepare_database, resolve, LocalExpr};
    use crate::pushdown::push_down_batch;
    use crate::roots::assign_roots;
    use lmfao_data::{AttrType, DatabaseSchema, RelationSchema};
    use lmfao_expr::{Aggregate, QueryBatch};
    use lmfao_jointree::{build_join_tree, Hypergraph, JoinTree};

    /// Sales(store, item, units) ⋈ Items(item, price):
    ///   (1,1,3) (1,2,4) (2,1,5) ⋈ (1,10) (2,20)
    /// Join: (1,1,3,10) (1,2,4,20) (2,1,5,10)
    fn db_and_tree() -> (Database, JoinTree) {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs(
            "Sales",
            &[
                ("store", AttrType::Int),
                ("item", AttrType::Int),
                ("units", AttrType::Double),
            ],
        );
        schema.add_relation_with_attrs(
            "Items",
            &[("item", AttrType::Int), ("price", AttrType::Double)],
        );
        let store = schema.attr_id("store").unwrap();
        let item = schema.attr_id("item").unwrap();
        let units = schema.attr_id("units").unwrap();
        let price = schema.attr_id("price").unwrap();
        let sales = Relation::from_rows(
            RelationSchema::new("Sales", vec![store, item, units]),
            vec![
                vec![Value::Int(1), Value::Int(1), Value::Double(3.0)],
                vec![Value::Int(1), Value::Int(2), Value::Double(4.0)],
                vec![Value::Int(2), Value::Int(1), Value::Double(5.0)],
            ],
        )
        .unwrap();
        let items = Relation::from_rows(
            RelationSchema::new("Items", vec![item, price]),
            vec![
                vec![Value::Int(1), Value::Double(10.0)],
                vec![Value::Int(2), Value::Double(20.0)],
            ],
        )
        .unwrap();
        let db = Database::new(schema.clone(), vec![sales, items]).unwrap();
        let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
        (db, tree)
    }

    /// Runs the full stack (pushdown → group → plan → execute) and returns
    /// the query results, keyed by query index.
    fn run(
        batch: &QueryBatch,
        db: &mut Database,
        tree: &JoinTree,
        cfg: EngineConfig,
    ) -> Vec<ComputedView> {
        let roots = assign_roots(batch, tree, db, &cfg);
        let pd = push_down_batch(batch, tree, &roots);
        let grouping = group_views(&pd.catalog, cfg.multi_output);
        prepare_database(db, tree);
        let dynamics = DynamicRegistry::new();
        let mut computed: FxHashMap<ViewId, ComputedView> = FxHashMap::default();
        for gid in grouping.topological_order() {
            let mut plan = build_group_plan(db, tree, &pd.catalog, &grouping.groups[gid]).unwrap();
            plan.specialized = cfg.specialization;
            for (vid, cv) in execute_group(db, &plan, &computed, &dynamics, None).unwrap() {
                computed.insert(vid, cv);
            }
        }
        pd.outputs
            .iter()
            .map(|o| {
                let cv = computed[&o.view].clone();
                // project the query's aggregates out of the merged output view
                let mut projected =
                    ComputedView::new(cv.key_attrs.clone(), o.aggregate_indices.len());
                for (key, vals) in cv.iter() {
                    let sel: Vec<f64> = o.aggregate_indices.iter().map(|&i| vals[i]).collect();
                    projected.add(key.clone(), &sel);
                }
                projected
            })
            .collect()
    }

    #[test]
    fn scalar_count_and_sums_match_hand_computation() {
        let (mut db, tree) = db_and_tree();
        let units = db.schema().attr_id("units").unwrap();
        let price = db.schema().attr_id("price").unwrap();
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push("sum_units", vec![], vec![Aggregate::sum(units)]);
        batch.push("sum_price", vec![], vec![Aggregate::sum(price)]);
        batch.push("sum_up", vec![], vec![Aggregate::sum_product(units, price)]);
        let results = run(&batch, &mut db, &tree, EngineConfig::default());
        assert_eq!(results[0].scalar().unwrap()[0], 3.0);
        assert_eq!(results[1].scalar().unwrap()[0], 3.0 + 4.0 + 5.0);
        assert_eq!(results[2].scalar().unwrap()[0], 10.0 + 20.0 + 10.0);
        assert_eq!(
            results[3].scalar().unwrap()[0],
            3.0 * 10.0 + 4.0 * 20.0 + 5.0 * 10.0
        );
    }

    #[test]
    fn group_by_join_attribute() {
        let (mut db, tree) = db_and_tree();
        let store = db.schema().attr_id("store").unwrap();
        let units = db.schema().attr_id("units").unwrap();
        let mut batch = QueryBatch::new();
        batch.push(
            "per_store",
            vec![store],
            vec![Aggregate::sum(units), Aggregate::count()],
        );
        let results = run(&batch, &mut db, &tree, EngineConfig::default());
        let r = &results[0];
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(&[Value::Int(1)]).unwrap(), &[7.0, 2.0]);
        assert_eq!(r.get(&[Value::Int(2)]).unwrap(), &[5.0, 1.0]);
    }

    #[test]
    fn group_by_dimension_attribute() {
        let (mut db, tree) = db_and_tree();
        let price = db.schema().attr_id("price").unwrap();
        let units = db.schema().attr_id("units").unwrap();
        let mut batch = QueryBatch::new();
        batch.push("by_price", vec![price], vec![Aggregate::sum(units)]);
        let results = run(&batch, &mut db, &tree, EngineConfig::default());
        let r = &results[0];
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(&[Value::Double(10.0)]).unwrap(), &[8.0]);
        assert_eq!(r.get(&[Value::Double(20.0)]).unwrap(), &[4.0]);
    }

    #[test]
    fn group_by_spanning_fact_and_dimension_uses_extra_keys() {
        // Group by (store, price): store lives in Sales, price in Items, so
        // whatever the root, one side's attribute is carried as an extra key
        // of an incoming view.
        let (mut db, tree) = db_and_tree();
        let store = db.schema().attr_id("store").unwrap();
        let price = db.schema().attr_id("price").unwrap();
        let units = db.schema().attr_id("units").unwrap();
        let mut batch = QueryBatch::new();
        batch.push(
            "by_store_price",
            vec![store, price],
            vec![Aggregate::sum(units)],
        );
        let results = run(&batch, &mut db, &tree, EngineConfig::default());
        let r = &results[0];
        // Join tuples: (1,1,3,10) (1,2,4,20) (2,1,5,10); keys are in canonical
        // (sorted AttrId) order, i.e. [store, price].
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.get(&[Value::Int(1), Value::Double(10.0)]).unwrap(),
            &[3.0]
        );
        assert_eq!(
            r.get(&[Value::Int(1), Value::Double(20.0)]).unwrap(),
            &[4.0]
        );
        assert_eq!(
            r.get(&[Value::Int(2), Value::Double(10.0)]).unwrap(),
            &[5.0]
        );
    }

    #[test]
    fn group_by_non_join_fact_attribute() {
        let (mut db, tree) = db_and_tree();
        let units = db.schema().attr_id("units").unwrap();
        let price = db.schema().attr_id("price").unwrap();
        let mut batch = QueryBatch::new();
        batch.push("by_units", vec![units], vec![Aggregate::sum(price)]);
        let results = run(&batch, &mut db, &tree, EngineConfig::default());
        let r = &results[0];
        assert_eq!(r.len(), 3);
        assert_eq!(r.get(&[Value::Double(3.0)]).unwrap(), &[10.0]);
        assert_eq!(r.get(&[Value::Double(4.0)]).unwrap(), &[20.0]);
        assert_eq!(r.get(&[Value::Double(5.0)]).unwrap(), &[10.0]);
    }

    #[test]
    fn dangling_tuples_are_dropped_by_the_join() {
        let (mut db, tree) = db_and_tree();
        // Add a Sales row for an item that does not exist in Items.
        let store = db.schema().attr_id("store").unwrap();
        let _ = store;
        db.relation_mut("Sales")
            .unwrap()
            .push_row(&[Value::Int(9), Value::Int(99), Value::Double(100.0)])
            .unwrap();
        db.recompute_statistics();
        let units = db.schema().attr_id("units").unwrap();
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push("sum_units", vec![], vec![Aggregate::sum(units)]);
        let results = run(&batch, &mut db, &tree, EngineConfig::default());
        // The dangling tuple must not contribute.
        assert_eq!(results[0].scalar().unwrap()[0], 3.0);
        assert_eq!(results[1].scalar().unwrap()[0], 12.0);
    }

    #[test]
    fn indicator_conditions_select_fragments() {
        let (mut db, tree) = db_and_tree();
        let units = db.schema().attr_id("units").unwrap();
        let price = db.schema().attr_id("price").unwrap();
        // SUM(units * 1[price >= 15]): only the (1,2,4,20) join tuple qualifies.
        let cond = lmfao_expr::ScalarFunction::Indicator {
            attr: price,
            op: lmfao_expr::CmpOp::Ge,
            threshold: Value::Double(15.0),
        };
        let agg = Aggregate::sum(units).times(cond);
        let mut batch = QueryBatch::new();
        batch.push("rt_node", vec![], vec![agg]);
        let results = run(&batch, &mut db, &tree, EngineConfig::default());
        assert_eq!(results[0].scalar().unwrap()[0], 4.0);
    }

    #[test]
    fn partitioned_execution_merges_to_the_same_result() {
        let (mut db, tree) = db_and_tree();
        let units = db.schema().attr_id("units").unwrap();
        let price = db.schema().attr_id("price").unwrap();
        let mut batch = QueryBatch::new();
        batch.push("sum_up", vec![], vec![Aggregate::sum_product(units, price)]);
        let cfg = EngineConfig::default();
        let roots = assign_roots(&batch, &tree, &db, &cfg);
        let pd = push_down_batch(&batch, &tree, &roots);
        let grouping = group_views(&pd.catalog, true);
        prepare_database(&mut db, &tree);
        let dynamics = DynamicRegistry::new();
        let mut computed: FxHashMap<ViewId, ComputedView> = FxHashMap::default();
        for gid in grouping.topological_order() {
            let plan = build_group_plan(&db, &tree, &pd.catalog, &grouping.groups[gid]).unwrap();
            let rel_len = db.relation(&plan.relation).unwrap().len();
            // Split the relation into two arbitrary partitions and merge.
            let mid = rel_len / 2;
            let mut partials: FxHashMap<ViewId, ComputedView> = FxHashMap::default();
            for part in [0..mid, mid..rel_len] {
                for (vid, cv) in
                    execute_group(&db, &plan, &computed, &dynamics, Some(part)).unwrap()
                {
                    match partials.get_mut(&vid) {
                        Some(acc) => {
                            for (k, v) in cv.iter() {
                                acc.add(k.clone(), v);
                            }
                        }
                        None => {
                            partials.insert(vid, cv);
                        }
                    }
                }
            }
            computed.extend(partials);
        }
        let out = &computed[&pd.outputs[0].view];
        assert_eq!(
            out.scalar().unwrap()[0],
            3.0 * 10.0 + 4.0 * 20.0 + 5.0 * 10.0
        );
    }

    /// R(a, b, x) ⋈ S(b, y):
    ///   (1,1,2) (2,1,3) (3,2,4) ⋈ (1,10) (2,20)
    /// Join: (1,1,2,10) (2,1,3,10) (3,2,4,20)
    fn rs_db_and_tree() -> (Database, JoinTree) {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs(
            "R",
            &[
                ("a", AttrType::Int),
                ("b", AttrType::Int),
                ("x", AttrType::Double),
            ],
        );
        schema.add_relation_with_attrs("S", &[("b", AttrType::Int), ("y", AttrType::Double)]);
        let a = schema.attr_id("a").unwrap();
        let b = schema.attr_id("b").unwrap();
        let x = schema.attr_id("x").unwrap();
        let y = schema.attr_id("y").unwrap();
        let r = Relation::from_rows(
            RelationSchema::new("R", vec![a, b, x]),
            vec![
                vec![Value::Int(1), Value::Int(1), Value::Double(2.0)],
                vec![Value::Int(2), Value::Int(1), Value::Double(3.0)],
                vec![Value::Int(3), Value::Int(2), Value::Double(4.0)],
            ],
        )
        .unwrap();
        let s = Relation::from_rows(
            RelationSchema::new("S", vec![b, y]),
            vec![
                vec![Value::Int(1), Value::Double(10.0)],
                vec![Value::Int(2), Value::Double(20.0)],
            ],
        )
        .unwrap();
        let db = Database::new(schema.clone(), vec![r, s]).unwrap();
        let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
        (db, tree)
    }

    #[test]
    fn unoptimized_execution_matches_hand_computation() {
        let (mut db, tree) = rs_db_and_tree();
        let x = db.schema().attr_id("x").unwrap();
        let y = db.schema().attr_id("y").unwrap();
        let a = db.schema().attr_id("a").unwrap();
        let mut batch = QueryBatch::new();
        batch.push("sum_xy", vec![], vec![Aggregate::sum_product(x, y)]);
        batch.push("per_a", vec![a], vec![Aggregate::sum(y)]);
        let results = run(&batch, &mut db, &tree, EngineConfig::unoptimized());
        // Σ x·y = 20 + 30 + 80 = 130.
        assert_eq!(results[0].scalar().unwrap()[0], 130.0);
        // per a: a=1 → 10, a=2 → 10, a=3 → 20.
        assert_eq!(results[1].get(&[Value::Int(1)]).unwrap()[0], 10.0);
        assert_eq!(results[1].get(&[Value::Int(2)]).unwrap()[0], 10.0);
        assert_eq!(results[1].get(&[Value::Int(3)]).unwrap()[0], 20.0);
    }

    #[test]
    fn unoptimized_execution_drops_dangling_rows() {
        let (mut db, tree) = rs_db_and_tree();
        db.relation_mut("R")
            .unwrap()
            .push_row(&[Value::Int(9), Value::Int(99), Value::Double(100.0)])
            .unwrap();
        db.recompute_statistics();
        let x = db.schema().attr_id("x").unwrap();
        let mut batch = QueryBatch::new();
        batch.push("sum_x", vec![], vec![Aggregate::sum(x)]);
        let results = run(&batch, &mut db, &tree, EngineConfig::unoptimized());
        assert_eq!(results[0].scalar().unwrap()[0], 9.0);
    }

    /// F(a, b, c, x), sorted by the attribute order (a, b, c). The innermost
    /// ranges and their Σx: (1,1,1) → 5 over two rows, (1,1,2) → 5,
    /// (1,2,1) → −7, (1,2,3) → 7, (2,1,1) → −4, (2,1,3) → −4, (2,2,2) → −2.
    /// Σx over all rows is exactly 0, and so is Σx over (a, b) = (1, 2).
    fn register_db() -> Database {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs(
            "F",
            &[
                ("a", AttrType::Int),
                ("b", AttrType::Int),
                ("c", AttrType::Int),
                ("x", AttrType::Double),
            ],
        );
        let rows = [
            (1, 1, 1, 2.0),
            (1, 1, 1, 3.0),
            (1, 1, 2, 5.0),
            (1, 2, 1, -7.0),
            (1, 2, 3, 7.0),
            (2, 1, 1, -4.0),
            (2, 1, 3, -4.0),
            (2, 2, 2, -2.0),
        ]
        .map(|(a, b, c, x)| {
            vec![
                Value::Int(a),
                Value::Int(b),
                Value::Int(c),
                Value::Double(x),
            ]
        });
        let mut f =
            Relation::from_rows(schema.relation("F").unwrap().clone(), rows.to_vec()).unwrap();
        let order = ["a", "b", "c"].map(|n| schema.attr_id(n).unwrap());
        f.sort_by_attrs(&order);
        Database::new(schema, vec![f]).unwrap()
    }

    /// Σx and COUNT, one term each: the aggregates of most register tests.
    const SUM_X: &[(usize, f64)] = &[(0, 1.0)];
    const COUNT: &[(usize, f64)] = &[(1, 1.0)];

    /// A hand-built plan over [`register_db`] with attribute order (a, b, c)
    /// and one output per entry of `keys`, whose parts are attribute-order
    /// depths. Every output computes `aggregates`, each a sum of terms
    /// `constant · local`, where local expression 0 is Σx and 1 is COUNT.
    /// With `registers` off every output takes the per-contribution path.
    fn register_plan(
        db: &Database,
        keys: &[&[usize]],
        aggregates: &[&[(usize, f64)]],
        registers: bool,
    ) -> GroupPlan {
        let attr = |n: &str| db.schema().attr_id(n).unwrap();
        let attr_order = vec![attr("a"), attr("b"), attr("c")];
        let mut plan = GroupPlan {
            node: 0,
            relation: "F".into(),
            attr_order_cols: vec![0, 1, 2],
            attr_order: attr_order.clone(),
            incoming: vec![],
            outputs: vec![],
            local_exprs: vec![
                LocalExpr {
                    // Σx: argument 0 is column 3.
                    factors: vec![ResolvedFactor {
                        factor: ScalarFunction::Identity(AttrId(0)),
                        args: vec![3],
                    }],
                },
                LocalExpr { factors: vec![] },
            ],
            programs: vec![vec![]; 4],
            depth_factors: vec![],
            probes_at: vec![],
            prefix_source: vec![],
            registers_at: vec![],
            num_slots: 0,
            specialized: true,
        };
        for (view, depths) in keys.iter().enumerate() {
            let register_depth = registers.then(|| depths.iter().map(|d| d + 1).max().unwrap_or(0));
            let mut output = OutputPlan {
                view: ViewId(view),
                key_attrs: depths.iter().map(|&d| attr_order[d]).collect(),
                num_aggregates: aggregates.len(),
                register_depth,
                register_key: if registers { depths.to_vec() } else { vec![] },
                terms: vec![],
                general: vec![],
            };
            for (agg, terms) in aggregates.iter().enumerate() {
                for &(local_expr, value) in terms.iter() {
                    let slot = plan.num_slots as u32;
                    plan.num_slots += 1;
                    if value != 1.0 {
                        plan.programs[0].push(DepthUpdate::Constant { slot, value });
                    }
                    let emit = if registers {
                        Emit::Register
                    } else {
                        output.general.push(TermPlan {
                            extra_refs: vec![],
                            extra_views: vec![],
                            key: depths.iter().map(|&d| KeySource::BoundDepth(d)).collect(),
                            extra_factors: vec![],
                            row_factors: vec![],
                            per_row: false,
                        });
                        Emit::General(output.general.len() as u32 - 1)
                    };
                    output.terms.push(TermEntry {
                        slot,
                        local_expr: local_expr as u32,
                        agg: agg as u32,
                        emit,
                    });
                }
            }
            plan.outputs.push(output);
        }
        plan.index_depths();
        plan
    }

    /// Every output of `got` holds the same entries as the same output of
    /// `want`, with the same bits.
    fn assert_same_bits(got: &[(ViewId, ComputedView)], want: &[(ViewId, ComputedView)]) {
        let bits = |v: &ComputedView| {
            let mut entries: Vec<(Vec<Value>, Vec<u64>)> = v
                .iter()
                .map(|(k, a)| (k.clone(), a.iter().map(|x| x.to_bits()).collect()))
                .collect();
            entries.sort();
            entries
        };
        assert_eq!(got.len(), want.len());
        for ((vid, got), (_, want)) in got.iter().zip(want) {
            assert_eq!(bits(got), bits(want), "{vid:?}");
        }
    }

    fn int_key(values: &[i64]) -> Vec<Value> {
        values.iter().map(|&v| Value::Int(v)).collect()
    }

    /// Every register shape yields the hand-computed entries, and the same
    /// entries, bit for bit, as adding each contribution to its entry.
    #[test]
    fn register_shapes_match_hand_computation_and_per_contribution_updates() {
        let db = register_db();
        let dynamics = DynamicRegistry::new();
        let empty: FxHashMap<ViewId, ComputedView> = FxHashMap::default();
        // Scalar; a key equal to the prefix (a); the prefix (a, b); the
        // deepest attribute c alone, whose values recur under different
        // (a, b); and (c, a), bound at the deepest level and not a prefix.
        let keys: [&[usize]; 5] = [&[], &[0], &[0, 1], &[2], &[2, 0]];
        let plan = register_plan(&db, &keys, &[SUM_X, COUNT], true);
        let registers: Vec<Option<usize>> = plan.outputs.iter().map(|o| o.register_depth).collect();
        assert_eq!(registers, [Some(0), Some(1), Some(2), Some(3), Some(3)]);
        let out = execute_group(&db, &plan, &empty, &dynamics, None).unwrap();

        assert_eq!(out[0].1.len(), 1);
        assert_eq!(out[0].1.scalar().unwrap(), &[0.0, 8.0]);
        let expect: [&[(&[i64], [f64; 2])]; 4] = [
            &[(&[1], [10.0, 5.0]), (&[2], [-10.0, 3.0])],
            &[
                (&[1, 1], [10.0, 3.0]),
                (&[1, 2], [0.0, 2.0]),
                (&[2, 1], [-8.0, 2.0]),
                (&[2, 2], [-2.0, 1.0]),
            ],
            &[(&[1], [-6.0, 4.0]), (&[2], [3.0, 2.0]), (&[3], [3.0, 2.0])],
            &[
                (&[1, 1], [-2.0, 3.0]),
                (&[1, 2], [-4.0, 1.0]),
                (&[2, 1], [5.0, 1.0]),
                (&[2, 2], [-2.0, 1.0]),
                (&[3, 1], [7.0, 1.0]),
                (&[3, 2], [-4.0, 1.0]),
            ],
        ];
        for ((_, view), entries) in out[1..].iter().zip(expect) {
            assert_eq!(view.len(), entries.len());
            for (key, values) in entries {
                assert_eq!(view.get(&int_key(key)), Some(&values[..]), "{key:?}");
            }
        }

        let per_contribution = register_plan(&db, &keys[1..], &[SUM_X, COUNT], false);
        let reference = execute_group(&db, &per_contribution, &empty, &dynamics, None).unwrap();
        assert_same_bits(&out[1..], &reference);

        // One aggregate of three terms whose float sum depends on their
        // order: `1e16·n + n − 1e16·n` loses `n` to rounding where a
        // reordered sum keeps it. Each entry must see the terms in plan
        // order, with registers and without.
        let order_sensitive: &[(usize, f64)] = &[(1, 1e16), (1, 1.0), (1, -1e16)];
        let with = register_plan(&db, &keys[1..], &[order_sensitive, SUM_X], true);
        let without = register_plan(&db, &keys[1..], &[order_sensitive, SUM_X], false);
        let with = execute_group(&db, &with, &empty, &dynamics, None).unwrap();
        let without = execute_group(&db, &without, &empty, &dynamics, None).unwrap();
        assert_same_bits(&with, &without);
        // The test means something: some entry is not its exact count.
        let counts = &reference[0].1;
        let (_, rounded) = &with[0];
        assert!(counts
            .iter()
            .any(|(key, values)| rounded.get(key).unwrap()[0] != values[1]));
    }

    /// Partitions that split one key's subtree — inside the innermost range
    /// (1,1,1) and inside a = 1 — merge to the unsplit result: each scan
    /// loads and stores its own registers.
    #[test]
    fn register_rows_merge_across_a_split_key_subtree() {
        let db = register_db();
        let dynamics = DynamicRegistry::new();
        let empty: FxHashMap<ViewId, ComputedView> = FxHashMap::default();
        let keys: [&[usize]; 4] = [&[], &[0], &[0, 1], &[2]];
        let plan = register_plan(&db, &keys, &[SUM_X, COUNT], true);
        let whole = execute_group(&db, &plan, &empty, &dynamics, None).unwrap();
        let mut merged: Option<Vec<(ViewId, ComputedView)>> = None;
        for part in [0..1, 1..3, 3..8] {
            let next = execute_group(&db, &plan, &empty, &dynamics, Some(part)).unwrap();
            match merged.as_mut() {
                None => merged = Some(next),
                Some(acc) => {
                    for ((_, a), (_, b)) in acc.iter_mut().zip(next) {
                        a.merge_from(b);
                    }
                }
            }
        }
        for ((vid, got), (_, want)) in merged.unwrap().iter().zip(&whole) {
            assert_eq!(got.data, want.data, "{vid:?}");
        }
    }

    /// Exact cancellation: a scalar output whose contributions sum to 0 gets
    /// no entry; a keyed output keeps the zero entry of a key that nonzero
    /// contributions reached ((a, b) = (1, 2): −7 + 7).
    #[test]
    fn cancelled_scalar_has_no_entry_but_a_reached_key_keeps_its_zero() {
        let db = register_db();
        let dynamics = DynamicRegistry::new();
        let empty: FxHashMap<ViewId, ComputedView> = FxHashMap::default();
        let keys: [&[usize]; 2] = [&[], &[0, 1]];
        let plan = register_plan(&db, &keys, &[SUM_X], true);
        let out = execute_group(&db, &plan, &empty, &dynamics, None).unwrap();
        assert!(out[0].1.is_empty(), "Σx = 0: no scalar entry");
        let per_ab = &out[1].1;
        assert_eq!(per_ab.len(), 4);
        assert_eq!(per_ab.get(&int_key(&[1, 2])), Some(&[0.0][..]));
        assert_eq!(per_ab.get(&int_key(&[2, 1])), Some(&[-8.0][..]));
    }

    /// The star F(s, t, x) ⋈ S(a, s) ⋈ T(t, b), integers throughout. Every
    /// dimension key carries two values of its extra attribute:
    /// S: s = 1 → a ∈ {1, 2}, s = 2 → a ∈ {2, 3};
    /// T: t = 1 → b ∈ {1, 2}, t = 2 → b ∈ {2, 3}.
    /// F: (1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 9, 5); no T tuple has t = 9.
    /// `a` is declared before `s`, so a view of S keyed by (a, s) holds its
    /// bound attribute `s` at key position 1: not a prefix.
    fn star_db_and_tree() -> (Database, JoinTree) {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs("S", &[("a", AttrType::Int), ("s", AttrType::Int)]);
        schema.add_relation_with_attrs("T", &[("t", AttrType::Int), ("b", AttrType::Int)]);
        schema.add_relation_with_attrs(
            "F",
            &[
                ("s", AttrType::Int),
                ("t", AttrType::Int),
                ("x", AttrType::Int),
            ],
        );
        let relation = |name: &str, rows: &[&[i64]]| {
            let rows = rows.iter().map(|r| int_key(r)).collect();
            Relation::from_rows(schema.relation(name).unwrap().clone(), rows).unwrap()
        };
        let s = relation("S", &[&[1, 1], &[2, 1], &[2, 2], &[3, 2]]);
        let t = relation("T", &[&[1, 1], &[1, 2], &[2, 2], &[2, 3]]);
        let f = relation("F", &[&[1, 1, 1], &[1, 2, 2], &[2, 1, 1], &[2, 9, 5]]);
        let db = Database::new(schema.clone(), vec![s, t, f]).unwrap();
        let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
        (db, tree)
    }

    /// Plans `batch` over the star with a single root — F, which the batch
    /// must weigh heaviest — computes every group below it, and returns F's
    /// group plan, the views it consumes and where each query's results go.
    fn star_root(
        db: &mut Database,
        tree: &JoinTree,
        batch: &QueryBatch,
    ) -> (
        GroupPlan,
        FxHashMap<ViewId, ComputedView>,
        crate::pushdown::PushdownResult,
    ) {
        let cfg = EngineConfig {
            multi_root: false,
            ..EngineConfig::default()
        };
        let roots = assign_roots(batch, tree, db, &cfg);
        assert!(roots.roots.iter().all(|&r| tree.node(r).relation == "F"));
        let pd = push_down_batch(batch, tree, &roots);
        let grouping = group_views(&pd.catalog, cfg.multi_output);
        prepare_database(db, tree);
        let dynamics = DynamicRegistry::new();
        let mut computed: FxHashMap<ViewId, ComputedView> = FxHashMap::default();
        let mut root = None;
        for gid in grouping.topological_order() {
            let plan = build_group_plan(db, tree, &pd.catalog, &grouping.groups[gid]).unwrap();
            if plan.relation == "F" {
                assert!(root.replace(plan).is_none(), "one group scans F");
                continue;
            }
            for (vid, cv) in execute_group(db, &plan, &computed, &dynamics, None).unwrap() {
                computed.insert(vid, cv);
            }
        }
        (root.expect("F is the root"), computed, pd)
    }

    /// The entries of output `view` restricted to `aggregates`, with integer
    /// keys, in key order.
    fn int_entries(
        out: &[(ViewId, ComputedView)],
        view: ViewId,
        aggregates: &[usize],
    ) -> Vec<(Vec<i64>, Vec<f64>)> {
        let (_, cv) = out.iter().find(|(v, _)| *v == view).unwrap();
        let mut entries: Vec<(Vec<i64>, Vec<f64>)> = cv
            .iter()
            .map(|(key, values)| {
                let key = key
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) => *i,
                        other => panic!("non-integer key part {other:?}"),
                    })
                    .collect();
                (key, aggregates.iter().map(|&i| values[i]).collect())
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    fn owned(entries: &[(&[i64], &[f64])]) -> Vec<(Vec<i64>, Vec<f64>)> {
        entries
            .iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect()
    }

    /// The extra-key paths against hand-computed join results: a key taking
    /// extras from two incoming views (a 2 × 2 odometer per fact row), a
    /// bound key absent from one index, an indicator on a carried attribute,
    /// an index over a view whose bound attribute is not a key prefix, and a
    /// row-column key recurring across innermost ranges.
    #[test]
    fn extra_key_shapes_match_hand_computation() {
        let (mut db, tree) = star_db_and_tree();
        let attr = |n: &str| db.schema().attr_id(n).unwrap();
        let (a, b, x) = (attr("a"), attr("b"), attr("x"));
        let mut batch = QueryBatch::new();
        batch.push(
            "by_ab",
            vec![a, b],
            vec![Aggregate::count(), Aggregate::sum(x)],
        );
        batch.push("by_x", vec![x], vec![Aggregate::count()]);
        batch.push("by_ax", vec![a, x], vec![Aggregate::count()]);
        let (mut plan, computed, pd) = star_root(&mut db, &tree, &batch);
        let output_of = |q: usize| {
            let o = &pd.outputs[q];
            let oi = plan.outputs.iter().position(|p| p.view == o.view).unwrap();
            (oi, o.view, o.aggregate_indices.clone())
        };
        let (by_ab, by_ab_view, by_ab_aggs) = output_of(0);
        let (by_x, by_x_view, by_x_aggs) = output_of(1);
        let (by_ax, by_ax_view, by_ax_aggs) = output_of(2);

        // The shapes the plan must have for the test to mean anything.
        let x_col = db.relation("F").unwrap().position(x).unwrap();
        let ab = &plan.outputs[by_ab];
        assert_eq!(ab.general.len(), ab.terms.len());
        assert!(ab.general.iter().all(|t| t.extra_views.len() == 2));
        // S's view is keyed (a, s), T's (t, b): their bound attributes sit at
        // key positions 1 and 0.
        let bound_positions: Vec<(AttrId, &[usize])> = ab.general[0]
            .extra_views
            .iter()
            .map(|&iv| &plan.incoming[iv])
            .map(|inc| (inc.extras[0].0, inc.bound_positions.as_slice()))
            .collect();
        assert_eq!(bound_positions, [(a, &[1][..]), (b, &[0][..])]);
        // Every term reads `a` from its S entry and `b` from its T entry.
        let keys = |oi: usize| -> Vec<(Vec<KeySource>, bool)> {
            let terms = plan.outputs[oi].general.iter();
            terms.map(|t| (t.key.clone(), t.per_row)).collect()
        };
        let (from_s, from_t) = (
            KeySource::Extra { view: 0, pos: 0 },
            KeySource::Extra { view: 1, pos: 1 },
        );
        assert_eq!(keys(by_ab), vec![(vec![from_s, from_t], false); 2]);
        assert_eq!(keys(by_x), [(vec![KeySource::RowColumn(x_col)], true)]);
        assert_eq!(
            keys(by_ax),
            [(vec![from_s, KeySource::RowColumn(x_col)], true)]
        );

        // A copy of `by_ab` whose terms also carry 1[a ≥ 2], an extra factor
        // read from the S entry of the combination.
        let filtered_view = ViewId(pd.catalog.len());
        let mut filtered = plan.outputs[by_ab].clone();
        filtered.view = filtered_view;
        for term in &mut filtered.general {
            term.extra_factors.push(ResolvedFactor {
                factor: ScalarFunction::Indicator {
                    attr: AttrId(0),
                    op: CmpOp::Ge,
                    threshold: Value::Int(2),
                },
                args: vec![from_s],
            });
        }
        plan.outputs.push(filtered);

        let out = execute_group(&db, &plan, &computed, &DynamicRegistry::new(), None).unwrap();
        // Join tuples (a, b, x): F row (1, 1, 1) × a ∈ {1, 2} × b ∈ {1, 2};
        // (1, 2, 2) × {1, 2} × {2, 3}; (2, 1, 1) × {2, 3} × {1, 2}; the row
        // (2, 9, 5) finds s = 2 in S's index but no t = 9 in T's and adds
        // nothing.
        let ab_entries: [(&[i64], &[f64]); 8] = [
            (&[1, 1], &[1.0, 1.0]),
            (&[1, 2], &[2.0, 3.0]),
            (&[1, 3], &[1.0, 2.0]),
            (&[2, 1], &[2.0, 2.0]),
            (&[2, 2], &[3.0, 4.0]),
            (&[2, 3], &[1.0, 2.0]),
            (&[3, 1], &[1.0, 1.0]),
            (&[3, 2], &[1.0, 1.0]),
        ];
        assert_eq!(
            int_entries(&out, by_ab_view, &by_ab_aggs),
            owned(&ab_entries)
        );
        assert_eq!(
            int_entries(&out, filtered_view, &by_ab_aggs),
            owned(&ab_entries[3..])
        );
        // x = 1 recurs in the innermost ranges (1, 1) and (2, 1).
        assert_eq!(
            int_entries(&out, by_x_view, &by_x_aggs),
            owned(&[(&[1], &[8.0]), (&[2], &[4.0])])
        );
        assert_eq!(
            int_entries(&out, by_ax_view, &by_ax_aggs),
            owned(&[
                (&[1, 1], &[2.0]),
                (&[1, 2], &[2.0]),
                (&[2, 1], &[4.0]),
                (&[2, 2], &[2.0]),
                (&[3, 1], &[2.0]),
            ])
        );
    }

    #[test]
    fn lowered_factors_equal_generic_evaluation_bitwise() {
        // One column per storage class: Float (with -0.0, NaN, ±inf), Int,
        // Dict, and a Mixed column (an Int, a Double and a Null share it).
        let (f, i, d, m) = (AttrId(0), AttrId(1), AttrId(2), AttrId(3));
        let floats = [1.5, -0.0, 0.0, f64::NAN, f64::INFINITY, -2.25];
        let mixed = [
            Value::Int(1),
            Value::Double(0.5),
            Value::Null,
            Value::Int(-3),
            Value::Cat(2),
            Value::Double(f64::NAN),
        ];
        let rows: Vec<Vec<Value>> = (0..floats.len())
            .map(|r| {
                vec![
                    Value::Double(floats[r]),
                    Value::Int(r as i64 - 2),
                    Value::Cat(r as u32 % 3),
                    mixed[r],
                ]
            })
            .collect();
        let relation =
            Relation::from_rows(RelationSchema::new("T", vec![f, i, d, m]), rows).unwrap();
        assert!(matches!(relation.column(0), Column::Float(_)));
        assert!(matches!(relation.column(1), Column::Int(_)));
        assert!(matches!(relation.column(2), Column::Dict { .. }));
        assert!(matches!(relation.column(3), Column::Mixed(_)));
        // Attribute `k` is column `k`.
        let col_of_attr = |a: AttrId| a.index();

        // (factor, whether it must lower to a typed variant).
        let mut cases: Vec<(ScalarFunction, bool)> = Vec::new();
        for (attr, typed) in [(f, true), (i, true), (d, false), (m, false)] {
            cases.push((ScalarFunction::Identity(attr), typed));
            for exponent in 0..4 {
                cases.push((ScalarFunction::Power { attr, exponent }, typed));
            }
        }
        let double_thresholds = [1.5, -0.0, 0.0, f64::NAN, -f64::NAN, f64::NEG_INFINITY];
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        for op in ops {
            let mut indicator = |attr, threshold, typed| {
                cases.push((
                    ScalarFunction::Indicator {
                        attr,
                        op,
                        threshold,
                    },
                    typed,
                ));
            };
            for t in double_thresholds {
                indicator(f, Value::Double(t), true);
            }
            for t in [-2, 0, 7] {
                indicator(i, Value::Int(t), true);
            }
            // Code 99 is in no dictionary: it still orders as a plain code.
            for t in [0, 1, 99] {
                indicator(d, Value::Cat(t), true);
            }
            // Cross-variant thresholds compare by variant rank, which only
            // the generic path knows; the Mixed column has no typed slice.
            indicator(f, Value::Int(1), false);
            indicator(i, Value::Double(0.0), false);
            indicator(d, Value::Int(1), false);
            indicator(d, Value::Null, false);
            indicator(m, Value::Int(1), false);
            indicator(m, Value::Double(0.5), false);
        }

        let dynamics = DynamicRegistry::new();
        for (factor, typed) in &cases {
            let resolved = resolve(factor, |a| Some(col_of_attr(a))).unwrap();
            let lowered = compile_factor(&resolved, &relation);
            assert_eq!(
                !matches!(lowered, FastFactor::Slow(_)),
                *typed,
                "{factor:?}"
            );
            for row in 0..relation.len() {
                let got = eval_fast(&lowered, &relation, &dynamics, row);
                let want = factor.evaluate(&|a: AttrId| relation.value(row, col_of_attr(a)));
                assert_eq!(got.to_bits(), want.to_bits(), "{factor:?} at row {row}");
            }
        }
    }

    #[test]
    fn rows_rejected_by_an_indicator_contribute_exactly_zero() {
        // One flat relation, so the whole relation is one innermost range:
        // even rows (x = 1, t = 0) pass `t <= 0.5`, odd rows carry a
        // non-finite measure and are rejected. The answer must not depend on
        // the range length or on the rung.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for n in [64usize, 30] {
                let mut schema = DatabaseSchema::new();
                schema.add_relation_with_attrs(
                    "T",
                    &[
                        ("g", AttrType::Int),
                        ("x", AttrType::Double),
                        ("t", AttrType::Double),
                    ],
                );
                let g = schema.attr_id("g").unwrap();
                let x = schema.attr_id("x").unwrap();
                let t = schema.attr_id("t").unwrap();
                let rows = (0..n)
                    .map(|r| {
                        let odd = r % 2 == 1;
                        vec![
                            Value::Int((r % 4 / 2) as i64),
                            Value::Double(if odd { bad } else { 1.0 }),
                            Value::Double(if odd { 1.0 } else { 0.0 }),
                        ]
                    })
                    .collect();
                let rel = Relation::from_rows(schema.relation("T").unwrap().clone(), rows).unwrap();
                let db = Database::new(schema.clone(), vec![rel]).unwrap();
                let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
                // The measure comes first in the source order: the indicator
                // must be hoisted in front of it.
                let agg = Aggregate::sum(x).times(ScalarFunction::Indicator {
                    attr: t,
                    op: CmpOp::Le,
                    threshold: Value::Double(0.5),
                });
                let mut batch = QueryBatch::new();
                batch.push("total", vec![], vec![agg.clone()]);
                batch.push("per_g", vec![g], vec![agg]);
                for (name, cfg) in EngineConfig::ablation_ladder(2) {
                    let result = Engine::new(db.clone(), tree.clone(), cfg)
                        .execute(&batch)
                        .unwrap();
                    let what = format!("{name}, {n} rows, rejected x = {bad}");
                    assert_eq!(result.query("total").scalar()[0], (n / 2) as f64, "{what}");
                    let per_g = result.query("per_g");
                    let halves = [n.div_ceil(4), n / 4];
                    for (key, want) in halves.iter().enumerate() {
                        assert_eq!(
                            per_g.get(&[Value::Int(key as i64)]).unwrap()[0],
                            *want as f64,
                            "{what}"
                        );
                    }
                }
            }
        }
    }
}
