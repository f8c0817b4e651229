//! `e2ebench`: the repository's end-to-end benchmark. See `README.md`.

pub mod alloc;
pub mod json;
pub mod kernel;
pub mod metrics;
pub mod os;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod untraced;
pub mod workloads;
