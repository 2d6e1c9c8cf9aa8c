//! The one scheduler: a dependency-counted ready queue over a DAG whose
//! nodes may split into indexed parts.
//!
//! A node becomes ready the moment its last dependency publishes (there is
//! no inter-wave barrier). Workers claim `(node, part)` pairs from the front
//! ready node; the worker that finishes a node's last part merges the parts
//! **in index order** — so the node's output does not depend on which worker
//! finished when — publishes the output, and releases the dependents whose
//! last dependency this was. A job reads the outputs of its dependencies
//! through [`Done`]; outputs are written once and only read after the
//! release, so no reader ever waits.
//!
//! The first typed error or caught panic (surfaced as
//! [`EngineError::WorkerPanicked`]) cancels the queue and is the error
//! returned. The calling thread is always one of the workers: with one
//! worker nothing is spawned and no node is split, so the run is a plain
//! topological walk on the caller's thread.
//!
//! Three clients: fresh execution and maintenance scans in
//! [`crate::parallel`], and the commit frontier walk in [`crate::maintain`].

use crate::error::EngineError;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// The published outputs of a run, indexed by node. A job may read the
/// output of any of its (transitive) dependencies; every other node reads
/// as `None` until it completes.
pub(crate) struct Done<T>(Vec<OnceLock<T>>);

impl<T> Done<T> {
    /// The output of `node`, if it has completed.
    pub(crate) fn get(&self, node: usize) -> Option<&T> {
        self.0.get(node)?.get()
    }
}

/// Per-node scheduling state.
struct Node<T> {
    /// Dependencies not yet published.
    waiting_on: usize,
    /// Parts not yet recorded.
    parts_left: usize,
    /// Recorded parts by index (allocated when the first part lands; unused
    /// by single-part nodes).
    slots: Vec<Option<T>>,
}

struct State<T> {
    /// Ready nodes in dependency-completion order with their next unclaimed
    /// part. The front node's parts are claimed first; a node is popped when
    /// its last part is claimed.
    ready: VecDeque<(usize, usize)>,
    nodes: Vec<Node<T>>,
    /// Nodes not yet published.
    remaining: usize,
    /// First error raised by any worker; set once, cancels the queue.
    error: Option<EngineError>,
}

struct Pool<T, R, M> {
    dependents: Vec<Vec<usize>>,
    /// Parts per node (all 1 with one worker).
    parts: Vec<usize>,
    run: R,
    merge: M,
    done: Done<T>,
    state: Mutex<State<T>>,
    wake: Condvar,
}

/// Renders a panic payload for [`EngineError::WorkerPanicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl<T, R, M> Pool<T, R, M>
where
    R: Fn(usize, usize, usize, &Done<T>) -> Result<T, EngineError>,
    M: Fn(&mut T, T),
{
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state
            .lock()
            .expect("no job code runs under the scheduler lock")
    }

    /// Claims the next part of the front ready node, waiting while nothing
    /// is ready; `None` once every node is published or the run is cancelled.
    fn claim(&self) -> Option<(usize, usize)> {
        let mut st = self.lock();
        loop {
            if st.error.is_some() || st.remaining == 0 {
                return None;
            }
            if let Some(&(node, part)) = st.ready.front() {
                if part + 1 == self.parts[node] {
                    st.ready.pop_front();
                } else {
                    st.ready[0].1 += 1;
                }
                return Some((node, part));
            }
            st = self
                .wake
                .wait(st)
                .expect("no job code runs under the scheduler lock");
        }
    }

    /// Records one finished part; returns every part of the node, by index,
    /// to the worker that recorded the last one.
    fn record(&self, node: usize, part: usize, out: T) -> Option<Vec<Option<T>>> {
        let mut st = self.lock();
        let n = &mut st.nodes[node];
        if n.slots.is_empty() {
            n.slots.resize_with(self.parts[node], || None);
        }
        n.slots[part] = Some(out);
        n.parts_left -= 1;
        (n.parts_left == 0).then(|| std::mem::take(&mut n.slots))
    }

    /// Publishes a node's output and releases the dependents whose last
    /// dependency this was.
    fn publish(&self, node: usize, output: T) {
        let fresh = self.done.0[node].set(output).is_ok();
        debug_assert!(fresh, "node {node} published twice");
        let mut st = self.lock();
        for &dep in &self.dependents[node] {
            st.nodes[dep].waiting_on -= 1;
            if st.nodes[dep].waiting_on == 0 {
                st.ready.push_back((dep, 0));
            }
        }
        st.remaining -= 1;
        drop(st);
        self.wake.notify_all();
    }

    /// Records `error` (first writer wins), cancels the queue and wakes
    /// every worker.
    fn fail(&self, error: EngineError) {
        let mut st = self.lock();
        st.error.get_or_insert(error);
        st.ready.clear();
        drop(st);
        self.wake.notify_all();
    }

    /// Runs one claimed part; the finisher of the node's last part also
    /// merges the parts in index order and returns the node's output.
    fn step(&self, node: usize, part: usize) -> Result<Option<T>, EngineError> {
        let of = self.parts[node];
        let out = (self.run)(node, part, of, &self.done)?;
        if of == 1 {
            return Ok(Some(out));
        }
        let Some(slots) = self.record(node, part, out) else {
            return Ok(None);
        };
        let mut parts = slots
            .into_iter()
            .map(|slot| slot.expect("every part recorded"));
        let mut acc = parts.next().expect("a split node has parts");
        for next in parts {
            (self.merge)(&mut acc, next);
        }
        Ok(Some(acc))
    }

    /// The worker loop. All job code runs outside the lock and under
    /// `catch_unwind`, so a panicking job becomes a typed error.
    fn work(&self) {
        while let Some((node, part)) = self.claim() {
            let stepped = catch_unwind(AssertUnwindSafe(|| self.step(node, part))).unwrap_or_else(
                |payload| Err(EngineError::WorkerPanicked(panic_message(payload.as_ref()))),
            );
            match stepped {
                Ok(Some(output)) => self.publish(node, output),
                Ok(None) => {}
                Err(e) => return self.fail(e),
            }
        }
    }
}

/// Runs a DAG of `deps.len()` nodes — `deps[n]` lists the nodes `n` waits
/// for — on up to `workers` threads (the caller's included) and returns
/// every node's output, indexed by node.
///
/// With more than one worker, node `n` splits into `parts(n)` parts; each is
/// computed by `run(n, part, parts(n), done)` and the parts merge in index
/// order through `merge`. With one worker every node is `run(n, 0, 1, done)`
/// on the calling thread, in topological order.
pub(crate) fn run<T, P, R, M>(
    deps: &[Vec<usize>],
    parts: P,
    workers: usize,
    run: R,
    merge: M,
) -> Result<Vec<T>, EngineError>
where
    T: Send + Sync,
    P: Fn(usize) -> usize,
    R: Fn(usize, usize, usize, &Done<T>) -> Result<T, EngineError> + Sync,
    M: Fn(&mut T, T) + Sync,
{
    let n = deps.len();
    let mut parts: Vec<usize> = (0..n).map(|node| parts(node).max(1)).collect();
    let workers = workers.min(parts.iter().sum()).max(1);
    if workers == 1 {
        parts.fill(1);
    }

    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut ready = VecDeque::new();
    let mut nodes = Vec::with_capacity(n);
    for (node, waits_for) in deps.iter().enumerate() {
        for &d in waits_for {
            dependents[d].push(node);
        }
        if waits_for.is_empty() {
            ready.push_back((node, 0));
        }
        nodes.push(Node {
            waiting_on: waits_for.len(),
            parts_left: parts[node],
            slots: Vec::new(),
        });
    }
    let pool = Pool {
        dependents,
        parts,
        run,
        merge,
        done: Done((0..n).map(|_| OnceLock::new()).collect()),
        state: Mutex::new(State {
            ready,
            nodes,
            remaining: n,
            error: None,
        }),
        wake: Condvar::new(),
    };

    // `work` catches every job's panic, so none reaches the scope's join.
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| pool.work());
        }
        pool.work();
    });

    let state = pool
        .state
        .into_inner()
        .expect("no job code runs under the scheduler lock");
    if let Some(e) = state.error {
        return Err(e);
    }
    Ok(pool
        .done
        .0
        .into_iter()
        .map(|cell| cell.into_inner().expect("every node published"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread;

    /// A toy job over `deps`: each node's output is the list of nodes that
    /// completed before it could start (its transitive dependencies), and
    /// `runs` counts how often each node ran.
    fn closure_of(deps: &[Vec<usize>], workers: usize) -> Vec<Vec<usize>> {
        let runs: Vec<AtomicUsize> = deps.iter().map(|_| AtomicUsize::new(0)).collect();
        let out = run(
            deps,
            |_| 1,
            workers,
            |node, part, of, done: &Done<Vec<usize>>| {
                assert_eq!((part, of), (0, 1));
                runs[node].fetch_add(1, Ordering::SeqCst);
                let mut seen = Vec::new();
                for &d in &deps[node] {
                    // Every dependency is published before the node starts.
                    seen.extend(done.get(d).expect("dependency completed first"));
                    seen.push(d);
                }
                seen.sort_unstable();
                seen.dedup();
                Ok(seen)
            },
            |_, _| unreachable!("single-part nodes never merge"),
        )
        .unwrap();
        for (node, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::SeqCst), 1, "node {node} ran once");
        }
        out
    }

    #[test]
    fn diamond_and_chain_complete_every_node_once_after_its_dependencies() {
        // 0 → {1, 2} → 3, and the chain 0 → 1 → 2 → 3.
        let diamond = vec![vec![], vec![0], vec![0], vec![1, 2]];
        let chain = vec![vec![], vec![0], vec![1], vec![2]];
        for workers in [1, 2, 4, 8] {
            let out = closure_of(&diamond, workers);
            assert_eq!(out, vec![vec![], vec![0], vec![0], vec![0, 1, 2]]);
            let out = closure_of(&chain, workers);
            assert_eq!(out, vec![vec![], vec![0], vec![0, 1], vec![0, 1, 2]]);
        }
    }

    #[test]
    fn parts_fold_in_index_order_regardless_of_finish_order() {
        // Four parts, four workers; a barrier makes every part be in flight
        // at once, then the parts finish in *reverse* index order. String
        // concatenation does not commute, so only an index-order fold yields
        // "0123".
        const PARTS: usize = 4;
        let barrier = Barrier::new(PARTS);
        let finished = AtomicUsize::new(0);
        let out = run(
            &[vec![]],
            |_| PARTS,
            PARTS,
            |_, part, of, _: &Done<String>| {
                assert_eq!(of, PARTS);
                barrier.wait();
                while finished.load(Ordering::SeqCst) != PARTS - 1 - part {
                    thread::yield_now();
                }
                finished.fetch_add(1, Ordering::SeqCst);
                Ok(part.to_string())
            },
            |acc, next| acc.push_str(&next),
        )
        .unwrap();
        assert_eq!(out, vec!["0123".to_string()]);
    }

    #[test]
    fn a_typed_error_cancels_the_rest_and_is_the_error_returned() {
        // A chain: node 1 fails, so nodes 2 and 3 must never run.
        let chain = vec![vec![], vec![0], vec![1], vec![2]];
        for workers in [1, 2, 4] {
            let ran = AtomicUsize::new(0);
            let err = run(
                &chain,
                |_| 1,
                workers,
                |node, _, _, _: &Done<()>| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if node == 1 {
                        Err(EngineError::InvalidPlan("toy failure".into()))
                    } else {
                        Ok(())
                    }
                },
                |_, _| {},
            )
            .unwrap_err();
            assert_eq!(err, EngineError::InvalidPlan("toy failure".into()));
            assert_eq!(ran.load(Ordering::SeqCst), 2, "workers = {workers}");
        }
    }

    #[test]
    fn a_panicking_job_becomes_worker_panicked_at_every_worker_count() {
        for workers in [1, 2, 4] {
            let err = run(
                &[vec![], vec![], vec![0, 1]],
                |_| 2,
                workers,
                |node, _, _, _: &Done<()>| {
                    if node == 2 {
                        panic!("toy panic");
                    }
                    Ok(())
                },
                |_, _| {},
            )
            .unwrap_err();
            assert_eq!(err, EngineError::WorkerPanicked("toy panic".into()));
        }
    }

    #[test]
    fn zero_nodes_and_more_workers_than_nodes_return_without_hanging() {
        let none: Vec<Vec<usize>> = Vec::new();
        assert!(closure_of(&none, 1).is_empty());
        assert!(closure_of(&none, 8).is_empty());
        assert_eq!(closure_of(&[vec![]], 8), vec![Vec::<usize>::new()]);
        assert_eq!(closure_of(&[vec![], vec![0]], 16).len(), 2);
    }

    #[test]
    fn one_worker_runs_unsplit_on_the_callers_thread() {
        let caller = thread::current().id();
        let out = run(
            &[vec![], vec![0]],
            |_| 5,
            1,
            |node, part, of, _: &Done<usize>| {
                assert_eq!(thread::current().id(), caller);
                assert_eq!((part, of), (0, 1), "one worker never splits a node");
                Ok(node)
            },
            |_, _| unreachable!("unsplit nodes never merge"),
        )
        .unwrap();
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn panic_messages_render_str_and_string_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(s.as_ref()), "boom");
        let owned: Box<dyn std::any::Any + Send> = Box::new(String::from("kaput"));
        assert_eq!(panic_message(owned.as_ref()), "kaput");
        let other: Box<dyn std::any::Any + Send> = Box::new(17usize);
        assert!(panic_message(other.as_ref()).contains("non-string"));
    }
}
