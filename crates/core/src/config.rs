//! Engine configuration: the knobs behind Figure 5's ablation study.

/// Configuration of the LMFAO engine.
///
/// Each flag corresponds to one of the optimization layers evaluated in the
/// paper's Figure 5. Turning everything off yields the unoptimized rung (one
/// root, one scan per view, generic factor evaluation); turning everything on
/// is full LMFAO. Every rung runs the same executor ([`crate::exec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Use a different root of the join tree per query (the Find Roots
    /// layer). When disabled, all queries share a single root.
    pub multi_root: bool,
    /// Compute all views of a group in one scan over their common relation
    /// (the Multi-Output Optimization layer). When disabled, each view is
    /// computed with its own scan.
    pub multi_output: bool,
    /// Lower each local factor of a scan against the relation's typed columns
    /// once per scan (the substitute for the paper's C++ code generation).
    /// When disabled, the same loop nest evaluates every factor per row
    /// through a generic `Value` lookup and `ScalarFunction::evaluate`. The
    /// results are bit-identical either way, and the flag holds on every
    /// path: fresh execution, `into_serving` and `commit`.
    pub specialization: bool,
    /// Number of worker threads for task/domain parallelism of execution,
    /// generation 0 of [`PreparedBatch::into_serving`](crate::PreparedBatch::into_serving)
    /// included. `1` disables the Parallelization layer.
    /// [`Maintainer::commit`](crate::Maintainer::commit) runs on the
    /// caller's thread whatever this is.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            multi_root: true,
            multi_output: true,
            specialization: true,
            threads: 1,
        }
    }
}

impl EngineConfig {
    /// Full LMFAO with the given number of threads.
    pub fn full(threads: usize) -> Self {
        EngineConfig {
            multi_root: true,
            multi_output: true,
            specialization: true,
            threads: threads.max(1),
        }
    }

    /// The unoptimized rung (Figure 5's leftmost bar): generic factor
    /// evaluation, single-root, one scan per view, single-threaded.
    pub fn unoptimized() -> Self {
        EngineConfig {
            multi_root: false,
            multi_output: false,
            specialization: false,
            threads: 1,
        }
    }

    /// Adds specialization only — typed factor code in the same scans
    /// (Figure 5's second bar).
    pub fn with_specialization() -> Self {
        EngineConfig {
            specialization: true,
            ..Self::unoptimized()
        }
    }

    /// Specialization plus multi-output plans (third bar).
    pub fn with_multi_output() -> Self {
        EngineConfig {
            multi_output: true,
            ..Self::with_specialization()
        }
    }

    /// Specialization, multi-output and multiple roots (fourth bar).
    pub fn with_multi_root() -> Self {
        EngineConfig {
            multi_root: true,
            ..Self::with_multi_output()
        }
    }

    /// Builder: sets the thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Thread count from the `LMFAO_THREADS` environment variable, falling
    /// back to `fallback` when unset; `0` means one thread. CI's
    /// thread-matrix job runs the whole test suite under
    /// `LMFAO_THREADS={1,4}`; tests that exercise the parallel executor
    /// resolve their thread count through this so the matrix actually varies
    /// the scheduler.
    ///
    /// # Panics
    ///
    /// If `LMFAO_THREADS` is set but not a thread count, naming its value, so
    /// that a typo never runs the wrong thread count.
    pub fn env_threads(fallback: usize) -> usize {
        parse_threads(std::env::var_os("LMFAO_THREADS").as_deref(), fallback)
    }

    /// The ablation ladder of Figure 5, in order.
    pub fn ablation_ladder(threads: usize) -> Vec<(&'static str, EngineConfig)> {
        vec![
            ("unoptimized", Self::unoptimized()),
            ("+specialization", Self::with_specialization()),
            ("+multi-output", Self::with_multi_output()),
            ("+multi-root", Self::with_multi_root()),
            ("+parallelization", Self::with_multi_root().threads(threads)),
        ]
    }
}

/// The thread count `value` (an `LMFAO_THREADS` setting) names, at least 1,
/// or `fallback` (at least 1) when it is unset.
fn parse_threads(value: Option<&std::ffi::OsStr>, fallback: usize) -> usize {
    let Some(value) = value else {
        return fallback.max(1);
    };
    value
        .to_str()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or_else(|| panic!("LMFAO_THREADS must be a thread count, not {value:?}"))
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::OsStr;

    #[test]
    fn default_is_full_single_threaded() {
        let c = EngineConfig::default();
        assert!(c.multi_root && c.multi_output && c.specialization);
        assert_eq!(c.threads, 1);
    }

    #[test]
    fn ladder_is_monotone() {
        let ladder = EngineConfig::ablation_ladder(4);
        assert_eq!(ladder.len(), 5);
        assert_eq!(ladder[0].1, EngineConfig::unoptimized());
        assert!(ladder[1].1.specialization && !ladder[1].1.multi_output);
        assert!(ladder[2].1.multi_output && !ladder[2].1.multi_root);
        assert!(ladder[3].1.multi_root);
        assert_eq!(ladder[4].1.threads, 4);
    }

    #[test]
    fn thread_count_never_zero() {
        assert_eq!(EngineConfig::full(0).threads, 1);
        assert_eq!(EngineConfig::default().threads(0).threads, 1);
        assert!(EngineConfig::env_threads(0) >= 1);
        assert_eq!(parse_threads(None, 0), 1);
        assert_eq!(parse_threads(None, 7), 7);
        assert_eq!(parse_threads(Some(OsStr::new("0")), 7), 1);
        assert_eq!(parse_threads(Some(OsStr::new(" 4\n")), 7), 4);
    }

    #[test]
    #[should_panic(expected = "LMFAO_THREADS must be a thread count, not \"4x\"")]
    fn a_malformed_thread_count_panics_and_names_the_value() {
        parse_threads(Some(OsStr::new("4x")), 1);
    }

    #[test]
    #[should_panic(expected = "LMFAO_THREADS must be a thread count, not \"\"")]
    fn an_empty_thread_count_panics() {
        parse_threads(Some(OsStr::new("")), 1);
    }
}
