//! The backend seam: the engines must accept any third-party backend that
//! implements the two prober traits — both as a generic parameter and as a
//! `&dyn MeasurementBackend` trait object — without the pipelines ever
//! naming a concrete engine type.

use std::net::Ipv6Addr;

use followscent::bgp::{AsRegistry, Asn, Rib};
use followscent::core::{Pipeline, PipelineConfig, PipelineReport};
use followscent::prober::{MeasurementBackend, ProbeTransport, WorldView};
use followscent::simnet::{ProbeReply, SimTime, TraceHop};
use followscent::stream::{MonitorConfig, StreamMonitor, StreamPipeline};

/// A minimal "third-party" backend: announces one prefix, answers nothing.
/// Deliberately defined outside the workspace crates — everything it needs
/// is public trait surface.
struct SilentBackend {
    vantage: Ipv6Addr,
    rib: Rib,
    registry: AsRegistry,
}

impl SilentBackend {
    fn new() -> Self {
        let mut rib = Rib::new();
        rib.announce("2001:db8::/32".parse().unwrap(), Asn(64500));
        let mut registry = AsRegistry::new();
        registry.register(64500u32, "Example", "DE");
        SilentBackend {
            vantage: "2001:db8:ffff::1".parse().unwrap(),
            rib,
            registry,
        }
    }
}

impl ProbeTransport for SilentBackend {
    fn probe(&self, _target: Ipv6Addr, _t: SimTime) -> Option<ProbeReply> {
        None
    }

    fn trace(&self, _target: Ipv6Addr, _t: SimTime, _max_hops: u8) -> Vec<TraceHop> {
        Vec::new()
    }
}

impl WorldView for SilentBackend {
    fn vantage(&self) -> Ipv6Addr {
        self.vantage
    }

    fn rib(&self) -> &Rib {
        &self.rib
    }

    fn as_registry(&self) -> &AsRegistry {
        &self.registry
    }

    fn world_seed(&self) -> u64 {
        42
    }
}

fn small_config() -> PipelineConfig {
    PipelineConfig {
        max_48s_per_seed: 64,
        ..PipelineConfig::default()
    }
}

fn assert_empty_discovery(pipeline: &PipelineReport) {
    assert_eq!(pipeline.seed_unique_48s, 0);
    assert_eq!(pipeline.validated_48s, 0);
    assert!(pipeline.rotating_48s.is_empty());
    assert_eq!(pipeline.total_addresses, 0);
}

/// A generic third-party backend drives both discovery engines: the silent
/// network yields a structurally valid, empty report from each.
#[test]
fn campaign_accepts_a_generic_third_party_backend() {
    let backend = SilentBackend::new();
    let batch = Pipeline::new(small_config()).run(&backend);
    let streamed = StreamPipeline::with_shards(small_config(), 2)
        .run(&backend)
        .unwrap();
    assert_empty_discovery(&batch);
    assert_empty_discovery(&streamed);
    assert_eq!(batch, streamed, "batch ≡ stream even on a silent backend");
}

/// The same backend behind a `&dyn MeasurementBackend` trait object: the
/// engines are `?Sized`-friendly end to end.
#[test]
fn campaign_accepts_a_dyn_backend() {
    let backend = SilentBackend::new();
    let dyn_backend: &dyn MeasurementBackend = &backend;
    let report = StreamPipeline::with_shards(small_config(), 2)
        .run(dyn_backend)
        .unwrap();
    assert_empty_discovery(&report);
    assert_eq!(report, Pipeline::new(small_config()).run(dyn_backend));

    // The monitor works over a trait object too.
    let monitor = StreamMonitor::new(MonitorConfig {
        windows: 2,
        ..MonitorConfig::default()
    })
    .run(dyn_backend, &["2001:db8:1::/48".parse().unwrap()])
    .unwrap();
    assert_eq!(monitor.windows, 2);
    assert!(monitor.events.is_empty(), "a silent world emits no events");
}
