//! Sample statistics: percentiles with their sample counts, shares, and
//! the self-time subtraction that turns nested layer timings into a
//! per-layer budget.

/// A bag of measurements (microseconds, seconds, ...). Percentiles use
/// the nearest-rank definition, so every reported value is one that was
/// actually measured.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty bag.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Add one measurement.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Add every measurement of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Nearest-rank percentile, `q` in `[0, 1]`; `None` when empty.
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
        Some(self.values[rank.clamp(1, n) - 1])
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of a short list of repeated measurements (set-up, recovery).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    for v in values {
        s.push(*v);
    }
    s.percentile(0.5).unwrap_or(0.0)
}

/// The layers of the request path, in the order a request crosses them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Client SDK and its caches (`client`, `webcache`, `bloom`).
    Client,
    /// Wire, codec and event loop (`net`).
    Net,
    /// The origin server's own work (`core`, `invalidb`, `ttl`).
    Core,
    /// Planner and table access (`store`).
    Store,
    /// WAL staging and fsync (`durability`).
    Durability,
    /// The semi-synchronous replication gate (`repl`).
    Repl,
}

impl Layer {
    /// Every layer, in request order.
    pub const ALL: [Layer; 6] = [
        Layer::Client,
        Layer::Net,
        Layer::Core,
        Layer::Store,
        Layer::Durability,
        Layer::Repl,
    ];

    /// The layer's report name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Net => "net",
            Layer::Core => "core",
            Layer::Store => "store",
            Layer::Durability => "durability",
            Layer::Repl => "repl",
        }
    }
}

/// Nested timings of one operation, each the total time spent at or
/// below one boundary (microseconds). The boundaries nest: the
/// operation contains its round trips, a round trip contains the
/// server handler, and the handler contains store, durability and the
/// replication gate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Nested {
    /// The SDK call, end to end.
    pub op_us: f64,
    /// Round trips through the `Service` beneath the SDK.
    pub rpc_us: f64,
    /// Server handler time beneath those round trips.
    pub handler_us: f64,
    /// Planner and query execution inside the handler.
    pub store_us: f64,
    /// WAL stage plus commit inside the handler.
    pub durability_us: f64,
    /// Handler time after the last WAL commit, while the semi-sync gate
    /// waits for the replica (only on a replicated primary).
    pub gate_us: f64,
}

impl Nested {
    /// Self time per layer: each boundary's time minus the boundaries
    /// nested inside it. The self times add up to `op_us`.
    pub fn self_times(&self) -> [(Layer, f64); 6] {
        let inner = self.store_us + self.durability_us + self.gate_us;
        [
            (Layer::Client, self.op_us - self.rpc_us),
            (Layer::Net, self.rpc_us - self.handler_us),
            (Layer::Core, self.handler_us - inner),
            (Layer::Store, self.store_us),
            (Layer::Durability, self.durability_us),
            (Layer::Repl, self.gate_us),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_counts_samples() {
        let mut s = Samples::new();
        assert_eq!(s.percentile(0.5), None);
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.percentile(0.5), Some(3.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(1.0), Some(5.0));
        assert_eq!(s.percentile(0.99), Some(5.0));
        // Pushing after a percentile re-sorts.
        s.push(0.5);
        assert_eq!(s.percentile(0.0), Some(0.5));
        assert_eq!(s.mean(), Some(15.5 / 6.0));
    }

    #[test]
    fn share_of_nothing_is_zero() {
        assert_eq!(share(0, 0), 0.0);
        assert_eq!(share(1, 4), 0.25);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_times_subtract_nested_layers_and_sum_to_the_op() {
        let n = Nested {
            op_us: 100.0,
            rpc_us: 80.0,
            handler_us: 60.0,
            store_us: 10.0,
            durability_us: 20.0,
            gate_us: 25.0,
        };
        let st = n.self_times();
        let by = |l: Layer| st.iter().find(|(x, _)| *x == l).unwrap().1;
        assert_eq!(by(Layer::Client), 20.0);
        assert_eq!(by(Layer::Net), 20.0);
        assert_eq!(by(Layer::Core), 5.0);
        assert_eq!(by(Layer::Store), 10.0);
        assert_eq!(by(Layer::Durability), 20.0);
        assert_eq!(by(Layer::Repl), 25.0);
        let total: f64 = st.iter().map(|(_, v)| v).sum();
        assert!((total - n.op_us).abs() < 1e-9);
    }

    #[test]
    fn a_cache_hit_is_all_client_time() {
        let n = Nested {
            op_us: 5.0,
            ..Nested::default()
        };
        let st = n.self_times();
        assert_eq!(st[0], (Layer::Client, 5.0));
        assert!(st[1..].iter().all(|(_, v)| *v == 0.0));
    }
}
