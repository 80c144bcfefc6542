//! The span ledger and the replay report the helper prints.
//!
//! Every layer is timed from outside: the replays wrap each call into a
//! layer's public function in a span, and the ledger keeps, per layer,
//! the number of calls and the busy nanoseconds. Spans are kept in
//! memory and printed once, when the helper ends.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Calls into one layer and the time they took.
#[derive(Debug, Default, Serialize)]
pub struct Layer {
    pub calls: u64,
    pub ns: u64,
}

/// Layers by name. (An alias, because the vendored derive splits
/// fields at every comma, generic arguments included.)
pub type Layers = BTreeMap<String, Layer>;

/// Per-layer call counts and busy time.
#[derive(Debug, Default)]
pub struct Ledger {
    layers: Layers,
}

impl Ledger {
    /// Charges one call of `layer` that started at `since`.
    pub fn charge(&mut self, layer: &str, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        let e = self.layers.entry(layer.to_string()).or_default();
        e.calls += 1;
        e.ns += ns;
    }

    /// Times `f` as one call of `layer`.
    pub fn time<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.charge(layer, t);
        out
    }

    /// The layers, by name.
    pub fn into_layers(self) -> Layers {
        self.layers
    }
}

/// Per-sweep counts of a replay; a count a sweep does not keep is 0.
#[derive(Debug, Default, Serialize)]
pub struct Counts {
    /// Sets scored (tournament: (set, scheme) pairs).
    pub sets: u64,
    pub set_p50_ns: u64,
    pub set_p99_ns: u64,
    /// M values `pd2_processors_required` tried (fig3).
    pub pd2_m_probes: u64,
    pub accept_evals: u64,
    pub bins_opened: u64,
    /// Simulated sets and their quanta (tournament).
    pub sims: u64,
    pub horizon: u64,
    pub preemptions: u64,
    pub migrations: u64,
}

/// What a sweep replay prints: the CSV the binary would print, the
/// replay's wall time, points that disagree with the library, and the
/// ledger.
#[derive(Debug, Serialize)]
pub struct Replay {
    pub csv: String,
    pub wall_ns: u64,
    pub mismatches: u64,
    pub layers: Layers,
    pub counts: Counts,
}

impl Replay {
    /// The report as one line of JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("replay reports serialize")
    }
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut [], 0.5), 0);
    }
}
