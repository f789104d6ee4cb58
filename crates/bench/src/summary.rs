//! Consumer for the tracked `BENCH_compiler.json` account.
//!
//! `pm-bench` writes the benchmark JSON; this module reads it back and
//! renders the human summary (`figures --bench-summary`). The reader
//! ignores fields it does not use, so accounts written while the compiler
//! still had a parallel Algorithm 2 (`threads`, `compile_serial_s`,
//! `parallel_speedup`, …) parse as well.

use polymath::Json;

/// One workload row of the benchmark account.
#[derive(Debug, Clone)]
pub struct SummaryRow {
    /// Workload name (e.g. `fft-256`).
    pub name: String,
    /// Cold (fresh-driver) end-to-end seconds.
    pub cold_total_s: f64,
    /// Warm (template-cached) end-to-end seconds.
    pub warm_total_s: f64,
    /// Warm template-cache hit rate in `[0, 1]`.
    pub cache_hit_rate: f64,
}

/// The serve-throughput section (absent in accounts written before the
/// service existed).
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Distinct programs submitted.
    pub programs: u64,
    /// Total run requests answered.
    pub requests: u64,
    /// Warm-pass request throughput.
    pub programs_per_s: f64,
    /// Warm-pass invocation throughput.
    pub invocations_per_s: f64,
    /// Program-cache hit rate over the whole run.
    pub program_cache_hit_rate: f64,
    /// Template-cache hit rate over the whole run.
    pub template_cache_hit_rate: f64,
}

/// The resilience-soak section (absent in accounts written before the
/// chaos harness existed).
#[derive(Debug, Clone)]
pub struct SoakSummary {
    /// Responses collected (requests plus admission-phase probes).
    pub responses: u64,
    /// Responses with `ok: true`.
    pub ok: u64,
    /// Contained worker panics (the injected poison).
    pub worker_panics: u64,
    /// Circuit-breaker trips over the run.
    pub breaker_trips: u64,
    /// Requests the open breakers steered to host fallback.
    pub breaker_steered: u64,
    /// Whether the second pass replayed byte-identically.
    pub replay_identical: bool,
}

/// The parsed benchmark account.
#[derive(Debug, Clone)]
pub struct BenchSummary {
    /// Whether this was a `--quick` smoke run.
    pub quick: bool,
    /// Per-workload rows.
    pub rows: Vec<SummaryRow>,
    /// Serve throughput, when the account carries it.
    pub serve: Option<ServeSummary>,
    /// Resilience soak, when the account carries it.
    pub soak: Option<SoakSummary>,
}

/// Parses a `BENCH_compiler.json` document.
///
/// # Errors
///
/// A description of the first malformed or missing field.
pub fn parse_summary(text: &str) -> Result<BenchSummary, String> {
    let v = Json::parse(text).map_err(|e| e.to_string())?;
    let num = |v: &Json, key: &str| -> Result<f64, String> {
        v.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing number `{key}`"))
    };
    let quick = v.get("quick").and_then(Json::as_bool).ok_or("missing `quick`")?;
    let workloads = v.get("workloads").and_then(Json::as_array).ok_or("missing `workloads`")?;
    let mut rows = Vec::new();
    for w in workloads {
        let total = |stages: &str| -> Result<f64, String> {
            let s = w.get(stages).ok_or_else(|| format!("missing `{stages}`"))?;
            num(s, "total")
        };
        let cache = w.get("cache_warm").ok_or("missing `cache_warm`")?;
        rows.push(SummaryRow {
            name: w.get("name").and_then(Json::as_str).ok_or("missing `name`")?.to_string(),
            cold_total_s: total("stages_cold_s")?,
            warm_total_s: total("stages_s")?,
            cache_hit_rate: num(cache, "hit_rate")?,
        });
    }
    let serve = match v.get("serve") {
        None => None,
        Some(s) => {
            let pc = s.get("program_cache").ok_or("serve: missing `program_cache`")?;
            let tc = s.get("template_cache").ok_or("serve: missing `template_cache`")?;
            Some(ServeSummary {
                programs: num(s, "programs")? as u64,
                requests: num(s, "requests")? as u64,
                programs_per_s: num(s, "programs_per_s")?,
                invocations_per_s: num(s, "invocations_per_s")?,
                program_cache_hit_rate: num(pc, "hit_rate")?,
                template_cache_hit_rate: num(tc, "hit_rate")?,
            })
        }
    };
    let soak = match v.get("soak") {
        None => None,
        Some(s) => {
            let kinds = s.get("kinds").ok_or("soak: missing `kinds`")?;
            Some(SoakSummary {
                responses: num(s, "responses")? as u64,
                ok: num(kinds, "ok")? as u64,
                worker_panics: num(s, "worker_panics")? as u64,
                breaker_trips: num(s, "breaker_trips")? as u64,
                breaker_steered: num(s, "breaker_steered")? as u64,
                replay_identical: s
                    .get("replay_identical")
                    .and_then(Json::as_bool)
                    .ok_or("soak: missing `replay_identical`")?,
            })
        }
    };
    Ok(BenchSummary { quick, rows, serve, soak })
}

/// Renders the summary table `figures --bench-summary` prints.
pub fn render_summary(s: &BenchSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!("Compiler benchmark{}\n", if s.quick { " (quick set)" } else { "" }));
    out.push_str(&format!(
        "  {:<14} {:>10} {:>10} {:>7}\n",
        "workload", "cold ms", "warm ms", "cache"
    ));
    for r in &s.rows {
        out.push_str(&format!(
            "  {:<14} {:>10.3} {:>10.3} {:>6.1}%\n",
            r.name,
            r.cold_total_s * 1e3,
            r.warm_total_s * 1e3,
            r.cache_hit_rate * 100.0,
        ));
    }
    if let Some(sv) = &s.serve {
        out.push_str(&format!(
            "  serve: {} program(s), {} request(s), {:.1} req/s, {:.1} inv/s, \
             program cache {:.1}% hit, template cache {:.1}% hit\n",
            sv.programs,
            sv.requests,
            sv.programs_per_s,
            sv.invocations_per_s,
            sv.program_cache_hit_rate * 100.0,
            sv.template_cache_hit_rate * 100.0,
        ));
    }
    if let Some(sk) = &s.soak {
        out.push_str(&format!(
            "  soak: {} response(s) ({} ok), {} breaker trip(s), {} steered, \
             {} contained panic(s), replay {}\n",
            sk.responses,
            sk.ok,
            sk.breaker_trips,
            sk.breaker_steered,
            sk.worker_panics,
            if sk.replay_identical { "byte-identical" } else { "DIVERGED" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal account in the older schema, which still carried the
    /// parallel Algorithm-2 fields (`parallel_speedup: null` is what a
    /// single-thread run wrote).
    const ONE_THREAD_FIXTURE: &str = r#"{
      "quick": true,
      "threads": 1,
      "threads_explicit": false,
      "workloads": [
        {
          "name": "fft-64",
          "nodes_initial": 100,
          "nodes_final": 90,
          "partitions": 2,
          "stages_cold_s": {"frontend": 0.001, "total": 0.030},
          "stages_s": {"frontend": 0.001, "total": 0.010},
          "cache_warm": {"hits": 8, "misses": 2, "hit_rate": 0.8},
          "compile_serial_s": 0.005,
          "compile_parallel_s": 0.005,
          "parallel_threads": 1,
          "parallel_speedup": null
        }
      ]
    }"#;

    #[test]
    fn legacy_null_parallel_speedup_parses_without_a_speedup_column() {
        let s = parse_summary(ONE_THREAD_FIXTURE).unwrap();
        assert_eq!(s.rows.len(), 1);
        let text = render_summary(&s);
        assert!(text.contains("fft-64"), "{text}");
        assert!(text.contains("80.0%"), "{text}");
        assert!(!text.contains("n/a") && !text.contains("spd"), "{text}");
    }

    #[test]
    fn legacy_numeric_parallel_speedup_parses_without_a_speedup_column() {
        let fixed = ONE_THREAD_FIXTURE
            .replace("\"parallel_speedup\": null", "\"parallel_speedup\": 1.8462")
            .replace("\"threads\": 1", "\"threads\": 8");
        let s = parse_summary(&fixed).unwrap();
        let text = render_summary(&s);
        assert!(text.contains("10.000"), "{text}");
        assert!(!text.contains("1.85x") && !text.contains("thread"), "{text}");
    }

    #[test]
    fn committed_account_parses_at_compile_time() {
        // The committed account predates the single-threaded compiler and
        // still carries the parallel fields; it is the verify.sh perf-gate
        // baseline, so it stays as written and must keep parsing.
        const COMMITTED: &str = include_str!("../../../BENCH_compiler.json");
        assert!(COMMITTED.contains("\"parallel_speedup\""));
        let s = parse_summary(COMMITTED).unwrap();
        assert!(s.rows.iter().any(|r| r.name == "kmeans-784"), "{:?}", s.rows);
        let text = render_summary(&s);
        assert!(!text.contains("alg2"), "{text}");
    }

    #[test]
    fn serve_section_is_optional_but_renders_when_present() {
        let s = parse_summary(ONE_THREAD_FIXTURE).unwrap();
        assert!(s.serve.is_none());
        let with_serve = ONE_THREAD_FIXTURE.replace(
            "      ]\n    }",
            "      ],\n      \"serve\": {\
               \"programs\": 5, \"requests\": 15, \"invocations\": 45,\
               \"programs_per_s\": 120.5, \"invocations_per_s\": 361.5,\
               \"program_cache\": {\"hits\": 10, \"misses\": 5, \"hit_rate\": 0.6667},\
               \"template_cache\": {\"hits\": 40, \"misses\": 10, \"hit_rate\": 0.8}}\n    }",
        );
        let s = parse_summary(&with_serve).unwrap();
        let sv = s.serve.as_ref().expect("serve section");
        assert_eq!(sv.requests, 15);
        let text = render_summary(&s);
        assert!(text.contains("120.5 req/s"), "{text}");
        assert!(text.contains("program cache 66.7% hit"), "{text}");
    }

    #[test]
    fn soak_section_is_optional_but_renders_when_present() {
        let s = parse_summary(ONE_THREAD_FIXTURE).unwrap();
        assert!(s.soak.is_none());
        let with_soak = ONE_THREAD_FIXTURE.replace(
            "      ]\n    }",
            "      ],\n      \"soak\": {\
               \"seed\": 12648430, \"profile\": \"hostile\", \"responses\": 207,\
               \"tenants\": 4,\
               \"kinds\": {\"deadline_exceeded\": 12, \"ok\": 184, \"overloaded\": 1,\
                 \"quarantined\": 8, \"shedding\": 1, \"shutting_down\": 1},\
               \"worker_panics\": 1, \"quarantined_sources\": 1, \"quarantined_graphs\": 0,\
               \"breaker_trips\": 9, \"breaker_steered\": 498,\
               \"replay_identical\": true, \"wall_s\": 0.06}\n    }",
        );
        let s = parse_summary(&with_soak).unwrap();
        let sk = s.soak.as_ref().expect("soak section");
        assert_eq!(sk.responses, 207);
        assert_eq!(sk.ok, 184);
        assert!(sk.replay_identical);
        let text = render_summary(&s);
        assert!(text.contains("soak: 207 response(s) (184 ok)"), "{text}");
        assert!(text.contains("replay byte-identical"), "{text}");
    }

    #[test]
    fn committed_account_round_trips() {
        // The repo's committed BENCH_compiler.json must always be readable
        // by its own consumer.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_compiler.json"
        ))
        .expect("committed BENCH_compiler.json");
        let s = parse_summary(&text).unwrap();
        assert!(!s.rows.is_empty());
        render_summary(&s);
    }
}
