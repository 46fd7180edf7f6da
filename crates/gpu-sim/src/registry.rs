//! Shared-memo statistics, kept only as an empty listing.
//!
//! The simulator holds no per-setting cache any more, so there is nothing
//! to share across sessions and nothing to report. What remains here is
//! the listing's type and an accessor that returns no rows.

/// One shared-memo row: the (stencil, arch) display names plus cache
/// traffic counters and occupancy.
///
/// Exists only for the `wallbench/` benchmark, which still reads these
/// fields; remove it together with that call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedMemoStats {
    /// Stencil display name (`StencilSpec::name`).
    pub stencil: String,
    /// Architecture display name (`GpuArch::name`).
    pub arch: String,
    /// Memo lookups served from cache.
    pub hits: u64,
    /// Memo lookups that required a fresh model evaluation.
    pub misses: u64,
    /// Entries dropped to honour the cap.
    pub evictions: u64,
    /// Records currently cached.
    pub entries: usize,
    /// Entry cap (0 = unbounded).
    pub cap: usize,
}

/// Per-pair shared-memo stats: always empty, since no shared memo exists.
///
/// Exists only for the `wallbench/` benchmark, which still calls it;
/// remove it together with that call.
pub fn shared_memo_stats() -> Vec<SharedMemoStats> {
    Vec::new()
}
