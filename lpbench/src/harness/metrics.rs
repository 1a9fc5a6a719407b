//! The benchmark's vocabulary: workload and metric names with their units,
//! exactly as `BENCHMARK.json` lists them, and the per-layer values that
//! are computed from raw counts.

use std::collections::BTreeMap;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "compile-cold",
    "exec-hot",
    "exec-startup",
    "lifelong-cycle",
    "serve-mixed",
];

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// tracing off.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_geomean", "ms"),
    ("req_ms_p50", "ms"),
    ("req_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
    ("bytecode_bytes", "B"),
    ("native_bytes", "B"),
    ("dyn_minsts", "Minst"),
];

/// The optimizer's pass names, as `PipelineReport` rows carry them.
pub const PASSES: [&str; 15] = [
    "sroa",
    "mem2reg",
    "instsimplify",
    "reassociate",
    "gvn",
    "simplifycfg",
    "adce",
    "dce",
    "internalize",
    "devirtualize",
    "ipcp",
    "dae",
    "dge",
    "inline",
    "prune-eh",
];

/// Layer calls the benchmark wraps in spans. Each gives the per-layer
/// metric `<name>_ms`: the span's self time per pass.
pub const SPANS: [&str; 28] = [
    "minic.compile",
    "core.verify",
    "asm.print",
    "asm.parse",
    "transform.fpm",
    "transform.ltp",
    "transform.speculate",
    "analysis.callgraph",
    "analysis.dsa",
    "linker.link",
    "bytecode.write",
    "bytecode.read",
    "codegen.cisc32",
    "codegen.risc32",
    "codegen.fast_translate",
    "vm.new",
    "vm.exec",
    "vm.gen1_exec",
    "vm.gen2_exec",
    "vm.pgo_reoptimize",
    "vm.store.record_run",
    "vm.store.load_profile",
    "vm.store.save_reopt",
    "vm.store.load_reopt",
    "vm.store.open",
    "vm.store.module_hash",
    "vm.warm_start",
    "serve.client_request",
];

/// Per-layer metrics that are not span self times: `(name, unit)`.
const COUNTED: [(&str, &str); 43] = [
    ("minic.ir_insts", "count"),
    ("transform.ir_insts_after_fpm", "count"),
    ("transform.ir_insts_after_ltp", "count"),
    ("transform.analysis_cache_hit_share", "share"),
    ("transform.pass_faults", "count"),
    ("transform.guards_emitted", "count"),
    ("analysis.typed_access_pct", "%"),
    ("bytecode.bytes_per_inst", "B/inst"),
    ("codegen.cisc32_bytes", "B"),
    ("codegen.risc32_bytes", "B"),
    ("codegen.fast_bytes", "B"),
    ("codegen.fast_bail_share", "share"),
    ("vm.interp_minsts_per_s", "Minst/s"),
    ("vm.jit_minsts_per_s", "Minst/s"),
    ("vm.native_minsts_per_s", "Minst/s"),
    ("vm.tiered_minsts_per_s", "Minst/s"),
    ("vm.jit_translate_ms", "ms"),
    ("vm.native_translate_ms", "ms"),
    ("vm.promoted", "count"),
    ("vm.osr", "count"),
    ("vm.native_inst_share", "share"),
    ("vm.profile_overhead_pct", "%"),
    ("vm.pgo_inlined", "count"),
    ("vm.guard_fail_share", "share"),
    ("vm.deopts", "count"),
    ("serve.service_us_p50", "us"),
    ("serve.service_us_p99", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.transport_us_p50", "us"),
    ("serve.proto_encode_us", "us"),
    ("serve.proto_decode_us", "us"),
    ("serve.busy_share", "share"),
    ("serve.cache_hit_share", "share"),
    ("serve.req_per_s", "1/s"),
    ("core.trace.enabled_overhead_pct", "%"),
    ("bench.span_overhead_pct", "%"),
    ("bench.span_coverage_pct", "%"),
    ("bench.timer_floor_ns", "ns"),
    ("bench.calib_ms", "ms"),
    ("bench.tail_pct", "%"),
    ("bench.passes", "count"),
    ("bench.samples", "count"),
];

/// Every per-layer metric `(name, unit)`, reported by every workload's
/// traced run; a layer the workload does not use reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        SPANS.iter().map(|s| (format!("{s}_ms"), "ms")).collect();
    v.extend(PASSES.iter().filter_map(|p| Some((pass_metric(p)?, "ms"))));
    v.extend(COUNTED.iter().map(|(n, u)| (n.to_string(), *u)));
    v
}

/// The metric an optimizer pass's time is reported under; `None` for a
/// pass that is not one of the 15.
pub fn pass_metric(pass: &str) -> Option<String> {
    PASSES
        .contains(&pass)
        .then(|| format!("transform.pass.{pass}_ms"))
}

/// Fill in the per-layer values that are ratios of raw counts. Raw counts
/// (names starting with `_`) are the layers' own public counters, summed
/// where the benchmark called the layer; a ratio whose denominator is 0 —
/// the layer did nothing in this workload — stays 0.
pub fn derive(layer: &mut BTreeMap<String, f64>) {
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let mut ratio = |name: &str, num: &str, den: &[&str], scale: f64| {
        let d: f64 = den.iter().map(|k| get(layer, k)).sum();
        if d > 0.0 {
            let v = get(layer, num) / d * scale;
            layer.insert(name.to_string(), v);
        }
    };
    ratio(
        "transform.analysis_cache_hit_share",
        "_cache_hits",
        &["_cache_hits", "_cache_misses"],
        1.0,
    );
    ratio(
        "bytecode.bytes_per_inst",
        "_bytecode_bytes",
        &["_bytecode_insts"],
        1.0,
    );
    ratio(
        "codegen.fast_bail_share",
        "_fast_bails",
        &["_fast_attempts"],
        1.0,
    );
    ratio(
        "analysis.typed_access_pct",
        "_typed_accesses",
        &["_accesses"],
        100.0,
    );
    // Instructions per millisecond / 1000 = millions per second.
    ratio(
        "vm.tiered_minsts_per_s",
        "_vm_insts",
        &["vm.exec_ms", "vm.gen1_exec_ms", "vm.gen2_exec_ms"],
        1e-3,
    );
    ratio("vm.native_inst_share", "_native_insts", &["_vm_insts"], 1.0);
    ratio(
        "vm.guard_fail_share",
        "_guards_failed",
        &["_guards_passed", "_guards_failed"],
        1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.to_string()));
        assert!(per_layer().len() <= 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
    }

    #[test]
    fn only_the_fifteen_passes_have_a_metric() {
        assert_eq!(
            pass_metric("prune-eh").as_deref(),
            Some("transform.pass.prune-eh_ms")
        );
        assert_eq!(pass_metric("const-adder"), None);
    }

    #[test]
    fn ratios_skip_empty_denominators() {
        let mut m = BTreeMap::new();
        m.insert("_cache_hits".to_string(), 3.0);
        m.insert("_cache_misses".to_string(), 1.0);
        m.insert("_vm_insts".to_string(), 2_000_000.0);
        m.insert("vm.exec_ms".to_string(), 100.0);
        derive(&mut m);
        assert_eq!(m["transform.analysis_cache_hit_share"], 0.75);
        assert_eq!(m["vm.tiered_minsts_per_s"], 20.0);
        assert!(!m.contains_key("codegen.fast_bail_share"));
    }
}
