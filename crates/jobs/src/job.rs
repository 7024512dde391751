//! The unit of sweep work: one verified collection of a preset workload
//! under one [`GcConfig`], plus everything needed to name it (the ledger
//! identity whose `config_hash` keys the result cache) and to ship it to
//! a worker process (an exact two-way JSON codec).
//!
//! The key builders ([`workload_key`], [`engine_label`],
//! [`backend_label`], [`ledger_config_pairs`], [`ledger_env_pairs`])
//! moved here from `hwgc-bench` so the job layer and the harness derive
//! byte-identical ledger records; `hwgc-bench` re-exports them.

use hwgc_core::{GcConfig, GcOutcome, SimCollector, MAX_CORES};
use hwgc_heap::{verify_collection, Snapshot};
use hwgc_memsim::{
    DramConfig, MemBackendKind, MemConfig, PagePolicy, MAX_BANKS, MAX_SERVICE_LATENCY,
};
use hwgc_obs::json::Json;
use hwgc_obs::LedgerRecord;
use hwgc_workloads::{Preset, WorkloadSpec};

/// One sweep job: a workload to build and a config to collect it under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimJob {
    pub spec: WorkloadSpec,
    pub cfg: GcConfig,
}

impl SimJob {
    /// The job's ledger identity under the given binary name (outputs
    /// empty — the cache layer fills them on a miss). `binary` is
    /// deliberately *excluded* from [`LedgerRecord::config_hash`], so
    /// identical jobs dedupe across binaries.
    pub fn cache_key(&self, binary: &str) -> LedgerRecord {
        LedgerRecord {
            binary: binary.to_string(),
            workload: workload_key(&self.spec),
            engine: engine_label(&self.cfg).to_string(),
            backend: backend_label(&self.cfg).to_string(),
            config: ledger_config_pairs(&self.cfg),
            env: ledger_env_pairs(),
            ..LedgerRecord::default()
        }
    }

    /// The content hash that names this job everywhere: in the
    /// [`crate::JobSet`] dedupe, the resumption journal and the result
    /// cache. Binary-independent by construction.
    pub fn config_hash(&self) -> u64 {
        self.cache_key("").config_hash()
    }

    /// A human-readable job label: `workload@<cores>c/<engine>`.
    pub fn label(&self) -> String {
        format!(
            "{}@{}c/{}",
            workload_key(&self.spec),
            self.cfg.n_cores,
            engine_label(&self.cfg)
        )
    }
}

/// Run one job: build the heap, collect, verify. This is the only
/// simulation entry the executor and the `sweep_worker` binary use, so
/// in-process and multi-process runs are the same code path.
///
/// # Panics
/// Panics if the collected heap fails verification — sweep numbers from
/// an incorrect collection would be meaningless.
pub fn simulate(job: &SimJob) -> GcOutcome {
    let mut heap = job.spec.build();
    let snap = Snapshot::capture(&heap);
    let out = SimCollector::new(job.cfg).collect(&mut heap);
    verify_collection(&heap, out.free, &snap)
        .unwrap_or_else(|e| panic!("{} failed verification: {e}", job.spec.preset));
    out
}

/// The cache identity of a spec-built workload: every field of
/// [`WorkloadSpec`] that shapes the heap. (`scale` is a multiplier with
/// an exact decimal rendering for the values the harness uses.)
pub fn workload_key(spec: &WorkloadSpec) -> String {
    format!("{}/seed{}/scale{}", spec.preset, spec.seed, spec.scale)
}

/// Ledger label for the engine loop a config runs: the event-driven
/// `sparse` rule, or the per-cycle `reference` loop when
/// [`GcConfig::fast_forward`] is off.
pub fn engine_label(cfg: &GcConfig) -> &'static str {
    if cfg.fast_forward {
        "sparse"
    } else {
        "reference"
    }
}

/// Ledger label for the memory-timing backend.
pub fn backend_label(cfg: &GcConfig) -> &'static str {
    match cfg.mem.backend {
        MemBackendKind::Fixed => "fixed",
        MemBackendKind::Dram(_) => "dram",
    }
}

/// The simulation-relevant config of a run as sorted key/value pairs —
/// the input to [`LedgerRecord::config_hash`]. Every field of
/// [`GcConfig`] that can change a simulation outcome appears here; output
/// paths and profiling toggles deliberately do not, so two records of the
/// same simulation hash identically whether or not they were profiled.
///
/// DRAM backends additionally carry their full timing/policy parameter
/// set under the `dram` key: the bare `backend` label collapses every
/// DRAM variant to `"dram"`, and without the parameters an open-page
/// record could satisfy a closed-page lookup. Fixed-backend hashes are
/// unchanged by this (the key is absent), so committed ledgers stay
/// valid.
pub fn ledger_config_pairs(cfg: &GcConfig) -> Vec<(String, String)> {
    let kv = |k: &str, v: String| (k.to_string(), v);
    let mut pairs = if let MemBackendKind::Dram(d) = cfg.mem.backend {
        vec![kv("dram", format!("{d:?}"))]
    } else {
        Vec::new()
    };
    pairs.extend([
        kv("backend", backend_label(cfg).to_string()),
        kv("bandwidth", cfg.mem.bandwidth.to_string()),
        kv("engine", engine_label(cfg).to_string()),
        kv("extra_latency", cfg.mem.extra_latency.to_string()),
        kv("fast_forward", cfg.fast_forward.to_string()),
        kv(
            "header_cache_entries",
            cfg.mem.header_cache_entries.to_string(),
        ),
        kv(
            "header_fifo_capacity",
            cfg.mem.header_fifo_capacity.to_string(),
        ),
        kv("latency", cfg.mem.latency.to_string()),
        kv("line_split", format!("{:?}", cfg.line_split)),
        kv("max_cycles", cfg.max_cycles.to_string()),
        kv("multiport_sb", cfg.multiport_sb.to_string()),
        kv("n_cores", cfg.n_cores.to_string()),
        kv(
            "service_reorder_seed",
            format!("{:?}", cfg.mem.service_reorder_seed),
        ),
        kv("test_before_lock", cfg.test_before_lock.to_string()),
        kv(
            "tick_permutation_seed",
            format!("{:?}", cfg.tick_permutation_seed),
        ),
    ]);
    pairs
}

/// The `HWGC_*` environment knobs that shape simulation behaviour,
/// captured for the ledger's provenance field (and hashed into
/// [`LedgerRecord::config_hash`] with it). An allow list: every other
/// variable — output paths, profiling toggles, harness parallelism, the
/// cache's own knobs, a stale name in someone's shell — cannot change a
/// simulation result and so must not change its identity. The listed
/// knob is also resolved into [`ledger_config_pairs`].
pub fn ledger_env_pairs() -> Vec<(String, String)> {
    const SHAPES_A_SIMULATION: [&str; 1] = ["HWGC_MEM_BACKEND"];
    SHAPES_A_SIMULATION
        .iter()
        .filter_map(|&k| std::env::var(k).ok().map(|v| (k.to_string(), v)))
        .collect()
}

// ---------------------------------------------------------------------
// SimJob <-> Json: the worker wire codec. Exact two-way round-trip for
// every config the matrix layer can produce (proptested in
// tests/jobset.rs) — a job that decoded differently would silently
// simulate the wrong point of the design space.
// ---------------------------------------------------------------------

fn opt_u64(v: Option<u64>) -> Json {
    v.map_or(Json::Null, |n| Json::Int(i128::from(n)))
}

fn opt_u64_back(j: Option<&Json>, what: &str) -> Result<Option<u64>, String> {
    match j {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_int()
            .and_then(|i| u64::try_from(i).ok())
            .map(Some)
            .ok_or_else(|| format!("`{what}` is not a u64")),
    }
}

fn req_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_int)
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| format!("missing u64 field `{key}`"))
}

fn req_u32(j: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(req_u64(j, key)?).map_err(|_| format!("`{key}` overflows u32"))
}

fn req_usize(j: &Json, key: &str) -> Result<usize, String> {
    usize::try_from(req_u64(j, key)?).map_err(|_| format!("`{key}` overflows usize"))
}

/// A count or divisor the simulator asserts to be non-zero: a frame
/// carrying `0` is refused here instead of panicking a worker there.
fn positive<T: Default + PartialEq>(key: &str, n: T) -> Result<T, String> {
    if n == T::default() {
        Err(format!("`{key}` must be positive"))
    } else {
        Ok(n)
    }
}

fn req_bool(j: &Json, key: &str) -> Result<bool, String> {
    match j.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing bool field `{key}`")),
    }
}

fn backend_to_json(b: &MemBackendKind) -> Json {
    match b {
        MemBackendKind::Fixed => Json::Obj(vec![("kind".to_string(), Json::Str("fixed".into()))]),
        MemBackendKind::Dram(d) => Json::Obj(vec![
            ("kind".to_string(), Json::Str("dram".into())),
            ("t_rcd".to_string(), Json::Int(i128::from(d.t_rcd))),
            ("t_cas".to_string(), Json::Int(i128::from(d.t_cas))),
            ("t_rp".to_string(), Json::Int(i128::from(d.t_rp))),
            ("t_ras".to_string(), Json::Int(i128::from(d.t_ras))),
            ("n_banks".to_string(), Json::Int(i128::from(d.n_banks))),
            ("row_words".to_string(), Json::Int(i128::from(d.row_words))),
            (
                "page_policy".to_string(),
                Json::Str(
                    match d.page_policy {
                        PagePolicy::Open => "open",
                        PagePolicy::Closed => "closed",
                    }
                    .into(),
                ),
            ),
        ]),
    }
}

fn backend_from_json(j: &Json) -> Result<MemBackendKind, String> {
    match j.get("kind").and_then(Json::as_str) {
        Some("fixed") => Ok(MemBackendKind::Fixed),
        Some("dram") => Ok(MemBackendKind::Dram(DramConfig {
            t_rcd: req_u32(j, "t_rcd")?,
            t_cas: positive("t_cas", req_u32(j, "t_cas")?)?,
            t_rp: req_u32(j, "t_rp")?,
            t_ras: req_u32(j, "t_ras")?,
            n_banks: positive("n_banks", req_u32(j, "n_banks")?)?,
            row_words: positive("row_words", req_u32(j, "row_words")?)?,
            page_policy: match j.get("page_policy").and_then(Json::as_str) {
                Some("open") => PagePolicy::Open,
                Some("closed") => PagePolicy::Closed,
                other => return Err(format!("bad `page_policy` {other:?}")),
            },
        })),
        other => Err(format!("bad backend `kind` {other:?}")),
    }
}

fn mem_to_json(m: &MemConfig) -> Json {
    Json::Obj(vec![
        ("latency".to_string(), Json::Int(i128::from(m.latency))),
        ("bandwidth".to_string(), Json::Int(i128::from(m.bandwidth))),
        (
            "header_fifo_capacity".to_string(),
            Json::Int(m.header_fifo_capacity as i128),
        ),
        (
            "extra_latency".to_string(),
            Json::Int(i128::from(m.extra_latency)),
        ),
        (
            "header_cache_entries".to_string(),
            Json::Int(m.header_cache_entries as i128),
        ),
        (
            "service_reorder_seed".to_string(),
            opt_u64(m.service_reorder_seed),
        ),
        ("backend".to_string(), backend_to_json(&m.backend)),
    ])
}

fn mem_from_json(j: &Json) -> Result<MemConfig, String> {
    let mem = MemConfig {
        latency: req_u32(j, "latency")?,
        bandwidth: positive("bandwidth", req_u32(j, "bandwidth")?)?,
        header_fifo_capacity: req_usize(j, "header_fifo_capacity")?,
        extra_latency: req_u32(j, "extra_latency")?,
        header_cache_entries: req_usize(j, "header_cache_entries")?,
        service_reorder_seed: opt_u64_back(j.get("service_reorder_seed"), "service_reorder_seed")?,
        backend: backend_from_json(j.get("backend").ok_or("missing `backend`")?)?,
    };
    // The backends size their retirement wheel from this sum and assert
    // the same bound.
    let worst = mem.worst_service_latency();
    if worst > MAX_SERVICE_LATENCY {
        let access = match mem.backend {
            MemBackendKind::Fixed => "`latency`",
            MemBackendKind::Dram(_) => "`t_ras` + `t_rp` + `t_rcd` + `t_cas`",
        };
        return Err(format!(
            "{access} + `extra_latency` = {worst} cycles exceeds the supported \
             service latency of {MAX_SERVICE_LATENCY}"
        ));
    }
    // Likewise the DRAM backend allocates a queue per bank.
    if let MemBackendKind::Dram(dram) = mem.backend {
        if dram.n_banks > MAX_BANKS {
            return Err(format!(
                "`n_banks` = {} exceeds the supported {MAX_BANKS} banks",
                dram.n_banks
            ));
        }
    }
    Ok(mem)
}

/// Serialize a [`GcConfig`] for the worker wire. Exhaustive: a new
/// `GcConfig` field must be added here or the compiler complains in
/// [`config_from_json`]'s struct literal.
pub fn config_to_json(cfg: &GcConfig) -> Json {
    Json::Obj(vec![
        ("n_cores".to_string(), Json::Int(cfg.n_cores as i128)),
        ("mem".to_string(), mem_to_json(&cfg.mem)),
        (
            "test_before_lock".to_string(),
            Json::Bool(cfg.test_before_lock),
        ),
        (
            "line_split".to_string(),
            cfg.line_split
                .map_or(Json::Null, |n| Json::Int(i128::from(n))),
        ),
        (
            "tick_permutation_seed".to_string(),
            opt_u64(cfg.tick_permutation_seed),
        ),
        (
            "max_cycles".to_string(),
            Json::Int(i128::from(cfg.max_cycles)),
        ),
        ("multiport_sb".to_string(), Json::Bool(cfg.multiport_sb)),
        ("fast_forward".to_string(), Json::Bool(cfg.fast_forward)),
    ])
}

/// Decode [`config_to_json`] output. Exact inverse on everything
/// [`SimCollector::new`] and the memory backends accept; a frame they
/// would assert on (a zero count or divisor, more than [`MAX_CORES`]
/// cores, a service latency past [`MAX_SERVICE_LATENCY`], more than
/// [`MAX_BANKS`] banks) is an `Err` naming the field, and so is a
/// non-null `engine`: the park-rule pin is gone, and a frame that still
/// carries one comes from a stale encoder whose run would not be the one
/// it asked for.
pub fn config_from_json(j: &Json) -> Result<GcConfig, String> {
    if let Some(engine) = j.get("engine").filter(|e| !matches!(e, Json::Null)) {
        return Err(format!(
            "`engine` {} is no longer a config field (one park rule; \
             `fast_forward: false` is the reference loop)",
            engine.to_string_compact()
        ));
    }
    let n_cores = positive("n_cores", req_usize(j, "n_cores")?)?;
    if n_cores > MAX_CORES {
        return Err(format!(
            "`n_cores` = {n_cores} exceeds the supported {MAX_CORES} cores"
        ));
    }
    Ok(GcConfig {
        n_cores,
        mem: mem_from_json(j.get("mem").ok_or("missing `mem`")?)?,
        test_before_lock: req_bool(j, "test_before_lock")?,
        line_split: opt_u64_back(j.get("line_split"), "line_split")?
            .map(|n| u32::try_from(n).map_err(|_| "`line_split` overflows u32".to_string()))
            .transpose()?
            .map(|n| positive("line_split", n))
            .transpose()?,
        tick_permutation_seed: opt_u64_back(
            j.get("tick_permutation_seed"),
            "tick_permutation_seed",
        )?,
        max_cycles: req_u64(j, "max_cycles")?,
        multiport_sb: req_bool(j, "multiport_sb")?,
        fast_forward: req_bool(j, "fast_forward")?,
    })
}

/// Serialize a whole [`SimJob`].
pub fn job_to_json(job: &SimJob) -> Json {
    Json::Obj(vec![
        (
            "preset".to_string(),
            Json::Str(job.spec.preset.name().to_string()),
        ),
        ("seed".to_string(), Json::Int(i128::from(job.spec.seed))),
        // `Json::Float` renders via `{:?}` and parses back exactly, so
        // the scale multiplier survives the wire bit-for-bit.
        ("scale".to_string(), Json::Float(job.spec.scale)),
        ("cfg".to_string(), config_to_json(&job.cfg)),
    ])
}

/// Decode [`job_to_json`] output. Exact inverse.
pub fn job_from_json(j: &Json) -> Result<SimJob, String> {
    let preset_name = j
        .get("preset")
        .and_then(Json::as_str)
        .ok_or("missing `preset`")?;
    let preset =
        Preset::by_name(preset_name).ok_or_else(|| format!("unknown preset `{preset_name}`"))?;
    let scale = j
        .get("scale")
        .and_then(Json::as_f64)
        .ok_or("missing `scale`")?;
    Ok(SimJob {
        spec: WorkloadSpec {
            preset,
            seed: req_u64(j, "seed")?,
            scale,
        },
        cfg: config_from_json(j.get("cfg").ok_or("missing `cfg`")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_codec_round_trips_a_nontrivial_config() {
        let job = SimJob {
            spec: WorkloadSpec {
                preset: Preset::Javac,
                seed: 42,
                scale: 1.5,
            },
            cfg: GcConfig {
                n_cores: 4,
                mem: MemConfig {
                    extra_latency: 20,
                    service_reorder_seed: Some(7),
                    backend: MemBackendKind::Dram(DramConfig {
                        page_policy: PagePolicy::Closed,
                        ..DramConfig::default()
                    }),
                    ..MemConfig::default()
                },
                line_split: Some(8),
                tick_permutation_seed: Some(3),
                fast_forward: false,
                ..GcConfig::with_cores(4)
            },
        };
        let wire = job_to_json(&job).to_string_compact();
        let back = job_from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, job);
        assert_eq!(back.config_hash(), job.config_hash());
    }

    #[test]
    fn dram_variants_hash_distinctly() {
        let with_backend = |backend| SimJob {
            spec: WorkloadSpec::new(Preset::Compress, 42),
            cfg: GcConfig {
                mem: MemConfig::default().with_backend(backend),
                ..GcConfig::default()
            },
        };
        let open = with_backend(MemBackendKind::Dram(DramConfig::default()));
        let closed = with_backend(MemBackendKind::Dram(DramConfig {
            page_policy: PagePolicy::Closed,
            ..DramConfig::default()
        }));
        // Both are labelled plain "dram"; the `dram` config pair is what
        // keeps an open-page record from satisfying a closed-page lookup.
        assert_eq!(backend_label(&open.cfg), backend_label(&closed.cfg));
        assert_ne!(open.config_hash(), closed.config_hash());
        // The fixed backend carries no `dram` pair at all.
        assert!(ledger_config_pairs(&GcConfig::default())
            .iter()
            .all(|(k, _)| k != "dram"));
    }

    #[test]
    fn config_hash_is_binary_independent() {
        let job = SimJob {
            spec: WorkloadSpec::new(Preset::Compress, 42),
            cfg: GcConfig::with_cores(2),
        };
        assert_eq!(
            job.cache_key("fig5_scaling").config_hash(),
            job.cache_key("bench_baseline").config_hash(),
            "cross-binary dedupe rests on the binary field staying out of the hash"
        );
    }

    #[test]
    fn config_hash_ignores_env_knobs_that_cannot_shape_a_simulation() {
        let job = SimJob {
            spec: WorkloadSpec::new(Preset::Compress, 42),
            cfg: GcConfig::with_cores(2),
        };
        let before = job.config_hash();
        // An output path, a harness knob and a name nothing reads. None
        // of them can change what another test computes, so no lock.
        let noise = [
            ("HWGC_ARTIFACTS", "/some/path"),
            ("HWGC_UPDATE_GOLDENS", "1"),
            ("HWGC_NO_SUCH_KNOB", "on"),
        ];
        let saved = noise.map(|(k, _)| std::env::var_os(k));
        for (k, v) in noise {
            std::env::set_var(k, v);
        }
        let during = job.config_hash();
        let env = job.cache_key("").env;
        for ((k, _), old) in noise.iter().zip(saved) {
            match old {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
        assert_eq!(during, before);
        assert!(env.iter().all(|(k, _)| k == "HWGC_MEM_BACKEND"), "{env:?}");
    }

    /// `cfg`'s wire form with the field at `path` replaced.
    fn frame_with(cfg: &GcConfig, path: &[&str], value: Json) -> Json {
        fn set(j: &mut Json, path: &[&str], value: Json) {
            let Json::Obj(pairs) = j else {
                panic!("not an object at {path:?}")
            };
            let slot = &mut pairs
                .iter_mut()
                .find(|(k, _)| k == path[0])
                .unwrap_or_else(|| panic!("no field {path:?}"))
                .1;
            match path {
                [_] => *slot = value,
                [_, rest @ ..] => set(slot, rest, value),
                [] => unreachable!(),
            }
        }
        let mut frame = config_to_json(cfg);
        if path == ["engine"] {
            // The field left the wire; a stale encoder still sends it.
            let Json::Obj(pairs) = &mut frame else {
                unreachable!()
            };
            pairs.push(("engine".to_string(), value));
        } else {
            set(&mut frame, path, value);
        }
        // Through the text form, like a real worker frame or cache line.
        Json::parse(&frame.to_string_compact()).unwrap()
    }

    #[test]
    fn frames_the_simulator_would_assert_on_are_errors_naming_the_field() {
        let fixed = GcConfig::with_cores(4);
        let dram = GcConfig {
            mem: MemConfig::default().with_backend(MemBackendKind::Dram(DramConfig::default())),
            ..fixed
        };
        let zero = Json::Int(0);
        let big = |n: u64| Json::Int(i128::from(n));
        let cases: [(&GcConfig, &[&str], Json, &str); 17] = [
            (&fixed, &["n_cores"], zero.clone(), "`n_cores`"),
            // One core past the mask width, and the largest count a frame
            // can carry.
            (&fixed, &["n_cores"], big(MAX_CORES as u64 + 1), "`n_cores`"),
            (&fixed, &["n_cores"], big(usize::MAX as u64), "`n_cores`"),
            (&fixed, &["line_split"], zero.clone(), "`line_split`"),
            (&fixed, &["mem", "bandwidth"], zero.clone(), "`bandwidth`"),
            (
                &dram,
                &["mem", "backend", "n_banks"],
                zero.clone(),
                "`n_banks`",
            ),
            (
                &dram,
                &["mem", "backend", "row_words"],
                zero.clone(),
                "`row_words`",
            ),
            (&dram, &["mem", "backend", "t_cas"], zero.clone(), "`t_cas`"),
            // One past the bank bound, and the count that used to abort
            // a worker inside the allocator.
            (
                &dram,
                &["mem", "backend", "n_banks"],
                big(u64::from(MAX_BANKS) + 1),
                "`n_banks`",
            ),
            (
                &dram,
                &["mem", "backend", "n_banks"],
                big(u64::from(u32::MAX)),
                "`n_banks`",
            ),
            // One past the bound (the default latency is 5) ...
            (
                &fixed,
                &["mem", "extra_latency"],
                big(MAX_SERVICE_LATENCY - 4),
                "`latency` + `extra_latency`",
            ),
            // ... and sums that would wrap a `u32`.
            (
                &fixed,
                &["mem", "latency"],
                big(u64::from(u32::MAX)),
                "`latency` + `extra_latency`",
            ),
            (
                &dram,
                &["mem", "backend", "t_ras"],
                big(u64::from(u32::MAX)),
                "`t_ras` + `t_rp` + `t_rcd` + `t_cas` + `extra_latency`",
            ),
            (
                &dram,
                &["mem", "extra_latency"],
                big(u64::from(u32::MAX)),
                "`t_ras` + `t_rp` + `t_rcd` + `t_cas` + `extra_latency`",
            ),
            // A removed engine pin: what a stale `HWGC_WORKER_BIN` or an
            // old journal line would send.
            (&fixed, &["engine"], Json::Str("par".into()), "`engine`"),
            (&fixed, &["engine"], Json::Str("naive".into()), "`engine`"),
            (&fixed, &["engine"], Json::Str("sparse".into()), "`engine`"),
        ];
        for (cfg, path, value, named) in cases {
            let err = config_from_json(&frame_with(cfg, path, value))
                .expect_err(&format!("{path:?} accepted"));
            assert!(
                err.contains(named),
                "{path:?}: `{err}` does not name {named}"
            );
        }
    }

    #[test]
    fn every_config_the_repo_builds_still_round_trips() {
        let mut cfgs = vec![GcConfig::default()];
        // Up to the core bound (accepted: it is inclusive).
        for cores in [1usize, 2, 4, 8, 16, MAX_CORES] {
            cfgs.push(GcConfig::with_cores(cores));
        }
        let base = GcConfig::with_cores(16);
        // Figure 6, the ablations, and the largest latency the wheel
        // supports (accepted: the bound is inclusive).
        for mem in [
            MemConfig::default().with_extra_latency(20),
            MemConfig::default().with_service_reorder(7),
            MemConfig {
                header_fifo_capacity: 0,
                header_cache_entries: 64,
                latency: 0,
                ..MemConfig::default()
            },
            MemConfig::default().with_extra_latency(MAX_SERVICE_LATENCY as u32 - 5),
        ] {
            cfgs.push(GcConfig { mem, ..base });
        }
        for preset in ["150ns", "120ns", "100ns", "80ns"] {
            for page_policy in [PagePolicy::Open, PagePolicy::Closed] {
                let dram = DramConfig {
                    page_policy,
                    ..DramConfig::preset(preset).unwrap()
                };
                cfgs.push(GcConfig {
                    mem: MemConfig::default().with_backend(MemBackendKind::Dram(dram)),
                    ..base
                });
            }
        }
        // The largest bank count (accepted: the bound is inclusive).
        cfgs.push(GcConfig {
            mem: MemConfig::default().with_backend(MemBackendKind::Dram(DramConfig {
                n_banks: MAX_BANKS,
                ..DramConfig::default()
            })),
            ..base
        });
        for fast_forward in [true, false] {
            cfgs.push(GcConfig {
                line_split: Some(1),
                multiport_sb: true,
                test_before_lock: true,
                tick_permutation_seed: Some(9),
                fast_forward,
                ..base
            });
        }
        // An older frame's `null` engine (the automatic choice) still
        // decodes, to the same config.
        assert_eq!(
            config_from_json(&frame_with(&base, &["engine"], Json::Null)),
            Ok(base)
        );
        for cfg in cfgs {
            let wire = config_to_json(&cfg).to_string_compact();
            let back = config_from_json(&Json::parse(&wire).unwrap());
            assert_eq!(back, Ok(cfg), "{wire}");
            // What the codec accepts, the constructors accept.
            SimCollector::new(cfg);
            match cfg.mem.backend {
                MemBackendKind::Fixed => drop(hwgc_memsim::MemorySystem::new(cfg.n_cores, cfg.mem)),
                MemBackendKind::Dram(_) => {
                    drop(hwgc_memsim::DramMemorySystem::new(cfg.n_cores, cfg.mem))
                }
            }
        }
    }
}
