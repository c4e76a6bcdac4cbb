//! Metric names and units, and the result line.
//!
//! These lists are the contract with `BENCHMARK.json`; a test below keeps
//! the two identical.

/// End-to-end metrics of an untraced run, `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("write_p50_us", "us"),
    ("read_p50_us", "us"),
    ("verify_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Tail latencies, printed on the `#` lines of every run but left out of
/// the result: on a host whose hypervisor steals a few percent of CPU
/// time, every operation that overlaps a stolen slice lands in the tail,
/// so a p99 tracks the host's steal rather than the program (measured
/// spreads of 0.3–0.8 across ten seeds), and no bound can gate it.
pub const TAILS: [(&str, &str); 2] = [("read_p99_us", "us"), ("verify_p99_us", "us")];

/// Per-layer metrics of a traced run, `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("store.self_us.write", "us"),
    ("store.self_us.read", "us"),
    ("store.self_us.verify", "us"),
    ("store.batch.keys", "count"),
    ("store.batch.shards", "count"),
    ("store.batch.dedupe", "ratio"),
    ("store.install_us", "us"),
    ("core.write_us", "us"),
    ("core.read_us", "us"),
    ("core.verify_us", "us"),
    ("quorum.rounds_per_op", "count/op"),
    ("quorum.spins_per_round", "count"),
    ("quorum.wait_share", "ratio"),
    ("register.accesses_per_op.write", "count/op"),
    ("register.accesses_per_op.read", "count/op"),
    ("register.accesses_per_op.verify", "count/op"),
    ("register.time_share.read", "ratio"),
    ("gate.steps_per_op", "count/op"),
    ("help.polls_per_op", "count/op"),
    ("help.useful_ratio", "ratio"),
    ("help.busy_share", "ratio"),
    ("help.threads", "count"),
    ("register.load_us.p50", "us"),
    ("register.load_us.p99", "us"),
    ("register.store_us.p50", "us"),
    ("register.store_us.p99", "us"),
    ("mp.accesses_per_op.write", "count/op"),
    ("mp.accesses_per_op.read", "count/op"),
    ("mp.accesses_per_op.verify", "count/op"),
    ("mp.registers", "count"),
    ("mp.groups", "count"),
    ("mp.workers", "count"),
    ("register.create_us", "us"),
    ("trace.overhead_share", "ratio"),
];

/// Measured values by name.
#[derive(Default, Debug)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(!self.0.iter().any(|(n, _)| *n == name), "metric {name} set twice");
        self.0.push((name, if value.is_finite() { value } else { 0.0 }));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn names(&self) -> Vec<&'static str> {
        self.0.iter().map(|(n, _)| *n).collect()
    }

    /// `name value unit` lines, in `declared` order.
    pub fn table(&self, declared: &[(&str, &str)]) -> String {
        declared
            .iter()
            .filter_map(|(name, unit)| self.get(name).map(|v| format!("{name} {v:.6} {unit}\n")))
            .collect()
    }

    /// The JSON `metrics` object over exactly the `declared` metrics.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric was not measured or an undeclared one
    /// was.
    pub fn json(&self, declared: &[(&str, &str)]) -> String {
        let mut names = self.names();
        names.sort_unstable();
        let mut want: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        assert_eq!(names, want, "measured metrics differ from the declared ones");
        let body: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name).expect("checked above");
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The result line the benchmark ends its standard output with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics_json}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of the array under `key` in `BENCHMARK.json`.
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |obj: &str, f: &str| -> Option<String> {
            let at = obj.find(&format!("\"{f}\""))?;
            let rest = &obj[at + f.len() + 2..];
            let open = rest.find('"')? + 1;
            let len = rest[open..].find('"')?;
            Some(rest[open..open + len].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name").expect("name"), field(obj, "unit").expect("unit")))
            .collect()
    }

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|(n, u)| ((*n).to_string(), (*u).to_string())).collect()
    }

    #[test]
    fn names_and_units_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(declared(json, "end_to_end"), pairs(&END_TO_END));
        assert_eq!(declared(json, "per_layer"), pairs(&PER_LAYER));
        let workloads: Vec<String> = json
            .split("\"workloads\"")
            .nth(1)
            .and_then(|s| s.split(']').next())
            .expect("workloads section")
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect();
        let ours: Vec<String> =
            crate::workload::WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn json_emits_exactly_the_declared_metrics() {
        let mut v = Values::default();
        v.set("ops_per_s", 12.5);
        v.set("setup_s", f64::NAN);
        let declared = [("ops_per_s", "1/s"), ("setup_s", "s")];
        assert_eq!(
            v.json(&declared),
            "{\"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}"
        );
        assert!(std::panic::catch_unwind(|| v.json(&declared[..1])).is_err());
    }
}
