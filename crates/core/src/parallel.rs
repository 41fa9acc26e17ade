//! Worker-count configuration for thread pools.

/// How many workers a pool runs — the compile service's worker pool
/// and the load generators' client and worker counts.
///
/// A single compile always runs sequentially: the paper's Digraph
/// algorithm is one linear depth-first traversal per relation, so
/// concurrency comes from running independent compiles on separate
/// workers, not from splitting one.
///
/// # Examples
///
/// ```
/// use lalr_core::Parallelism;
///
/// assert_eq!(Parallelism::default().threads(), 1);
/// assert_eq!(Parallelism::new(4).threads(), 4);
/// assert_eq!(Parallelism::new(0).threads(), 1, "zero is clamped");
/// assert!(Parallelism::available().threads() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// Exactly one worker.
    pub fn sequential() -> Self {
        Parallelism { threads: 1 }
    }

    /// A fixed worker count (`0` is treated as `1`).
    pub fn new(threads: usize) -> Self {
        Parallelism {
            threads: threads.max(1),
        }
    }

    /// One worker per available hardware thread.
    pub fn available() -> Self {
        Parallelism::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The configured worker count (always at least 1).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::sequential()
    }
}
