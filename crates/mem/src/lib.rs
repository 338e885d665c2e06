//! # fgstp-mem
//!
//! Memory-hierarchy timing substrate for the Fg-STP reproduction: a generic
//! set-associative cache model ([`Cache`]), a miss-status-holding-register
//! file ([`MshrFile`]) bounding outstanding misses, a per-PC stride
//! prefetcher ([`StridePrefetcher`]) and a two-level hierarchy
//! ([`Hierarchy`]) with per-core L1 instruction/data caches, a shared L2 and
//! a fixed-latency DRAM — the configuration used by 2-core CMP studies of
//! the paper's era.
//!
//! The hierarchy is a *timing* model driven by the committed-path trace: an
//! access returns the number of cycles until its data is available, and
//! updates cache/MSHR state. Bandwidth is modeled through MSHR occupancy
//! (a full MSHR file delays new misses); bus contention is folded into the
//! fixed level latencies, as in the simulators of the period.
//!
//! ```
//! use fgstp_mem::{Hierarchy, HierarchyConfig};
//!
//! let mut h = Hierarchy::new(&HierarchyConfig::small(1));
//! let cold = h.access_data(0, 0x1000, false, 0);
//! let warm = h.access_data(0, 0x1000, false, cold);
//! assert!(cold > warm);
//! ```

pub mod cache;
pub mod hierarchy;
pub mod mshr;
pub mod prefetch;
pub mod wheel;

pub use cache::{AccessResult, Cache, CacheConfig, CacheStats};
pub use hierarchy::{
    DramBandwidth, DramStats, Hierarchy, HierarchyConfig, HierarchyStats, RequestorStats,
};
pub use mshr::MshrFile;
pub use prefetch::StridePrefetcher;
pub use wheel::EventWheel;
