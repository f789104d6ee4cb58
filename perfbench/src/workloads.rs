//! Seeded inputs for the three workloads, each paired with an oracle that
//! does not come from the compiler under test: `pm_workloads::reference`
//! for the serve family and the large compile mix, and the pm-fuzz model
//! evaluator (`PProgram::eval`) for generated programs.

use pm_fuzz::{gen_inputs, gen_program, GenConfig, PExpr, PProgram, PStmt, WordSource};
use pm_workloads::{datagen, programs, reference};
use polymath::Json;
use srdfg::Tensor;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Expected final-invocation outputs by name, flattened (complex values
/// interleave real and imaginary parts).
pub type Expect = BTreeMap<String, Vec<f64>>;

/// Relative tolerance of every oracle comparison, pm-fuzz's own.
pub const TOLERANCE: f64 = 1e-6;

/// SplitMix64: the benchmark's seeded word source.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_B00C)
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn vec(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.range(lo, hi)).collect()
    }

    /// Exponential draw with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

impl WordSource for Rng {
    fn next_word(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `|a - b| <= tol * (1 + max(|a|, |b|))`, the pm-fuzz comparison.
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

/// One generated serve request.
#[derive(Debug, Clone)]
pub struct Req {
    pub line: String,
    /// `None` when the oracle flagged the case as numerically unstable;
    /// such a response is counted as unchecked.
    pub expect: Option<Expect>,
    /// The same request without fault injection, when this one carries
    /// the `transient` chaos profile.
    pub twin: Option<String>,
}

fn tensor_json(dims: &[usize], values: &[f64]) -> Json {
    Json::Obj(vec![
        ("dims".into(), Json::Arr(dims.iter().map(|&d| Json::Num(d as f64)).collect())),
        ("values".into(), Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())),
    ])
}

type Feeds = Vec<(String, Json)>;

fn request_line(
    id: &str,
    tenant: &str,
    program: &str,
    invocations: u64,
    feeds: &Feeds,
    state: &Feeds,
    chaos: Option<u64>,
) -> String {
    let mut obj = vec![
        ("op".to_string(), Json::Str("run".into())),
        ("id".to_string(), Json::Str(id.into())),
        ("tenant".to_string(), Json::Str(tenant.into())),
        ("program".to_string(), Json::Str(program.into())),
        ("invocations".to_string(), Json::Num(invocations as f64)),
        ("feeds".to_string(), Json::Obj(feeds.clone())),
        ("timings".to_string(), Json::Bool(false)),
    ];
    if !state.is_empty() {
        obj.push(("state".to_string(), Json::Obj(state.clone())));
    }
    if let Some(seed) = chaos {
        obj.push((
            "chaos".to_string(),
            Json::Obj(vec![
                ("profile".into(), Json::Str("transient".into())),
                ("seed".into(), Json::Num(seed as f64)),
                ("max_retries".into(), Json::Num(3.0)),
            ]),
        ));
    }
    Json::Obj(obj).render()
}

/// Sources of the five-program serve family: logistic-64, logistic-256,
/// kmeans-16x4, dct-block and blackscholes-32.
pub fn serve_sources() -> Vec<String> {
    vec![
        programs::logistic(64),
        programs::logistic(256),
        programs::kmeans(16, 4),
        programs::dct_block(),
        programs::black_scholes(32),
    ]
}

/// Seeded feeds, state and reference outputs for serve-family program
/// `which` run for `invocations` invocations.
fn family_case(rng: &mut Rng, which: usize, invocations: u64) -> (Feeds, Feeds, Expect) {
    let mut expect = Expect::new();
    match which {
        0 | 1 => {
            let f = if which == 0 { 64 } else { 256 };
            let x = rng.vec(f, -1.0, 1.0);
            let label = rng.below(2) as f64;
            let w0 = rng.vec(f, -0.1, 0.1);
            let mut w = w0.clone();
            let mut prob = 0.0;
            for _ in 0..invocations {
                prob = reference::logistic_step(&x, label, &mut w);
            }
            expect.insert("prob".into(), vec![prob]);
            (
                vec![
                    ("x".into(), tensor_json(&[f], &x)),
                    ("label".into(), tensor_json(&[], &[label])),
                ],
                vec![("w".into(), tensor_json(&[f], &w0))],
                expect,
            )
        }
        2 => {
            let (f, k) = (16, 4);
            let x = rng.vec(f, 0.0, 1.0);
            let c0 = rng.vec(f * k, 0.0, 1.0);
            let mut centroids: Vec<Vec<f64>> = c0.chunks(f).map(<[f64]>::to_vec).collect();
            let mut assign = 0;
            for _ in 0..invocations {
                assign = reference::kmeans_step(&x, &mut centroids);
            }
            expect.insert("assign".into(), vec![assign as f64]);
            (
                vec![("x".into(), tensor_json(&[f], &x))],
                vec![("c".into(), tensor_json(&[k, f], &c0))],
                expect,
            )
        }
        3 => {
            let blk = rng.vec(64, 0.0, 255.0);
            let ck = datagen::dct_kernel();
            expect.insert("out".into(), reference::dct(&blk, 8, &ck));
            (
                vec![
                    ("blk".into(), tensor_json(&[8, 8], &blk)),
                    ("ck".into(), tensor_json(&[8, 8], &ck)),
                ],
                Vec::new(),
                expect,
            )
        }
        _ => {
            let n = 32;
            let spot = rng.vec(n, 60.0, 140.0);
            let strike = rng.vec(n, 80.0, 120.0);
            let vol = rng.vec(n, 0.1, 0.4);
            let rate = rng.range(0.01, 0.05);
            let tte = rng.range(0.25, 2.0);
            let call = (0..n)
                .map(|i| reference::black_scholes_call(spot[i], strike[i], vol[i], rate, tte))
                .collect();
            expect.insert("call".into(), call);
            (
                vec![
                    ("spot".into(), tensor_json(&[n], &spot)),
                    ("strike".into(), tensor_json(&[n], &strike)),
                    ("vol".into(), tensor_json(&[n], &vol)),
                    ("rate".into(), tensor_json(&[], &[rate])),
                    ("tte".into(), tensor_json(&[], &[tte])),
                ],
                Vec::new(),
                expect,
            )
        }
    }
}

/// One warm-up request per serve-family program, chaos off.
pub fn serve_hot_warmup(rng: &mut Rng, sources: &[String]) -> Vec<Req> {
    (0..sources.len())
        .map(|which| {
            let (feeds, state, expect) = family_case(rng, which, 1);
            let id = format!("w{which}");
            let line = request_line(&id, "tenant0", &sources[which], 1, &feeds, &state, None);
            Req { line, expect: Some(expect), twin: None }
        })
        .collect()
}

/// `n` draws of `0..k` with every value equally often (up to rounding),
/// in seeded order: the mix is exact on every seed, only its order varies.
pub fn balanced(rng: &mut Rng, k: usize, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).map(|i| i % k).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// serve-hot requests: a program, tenant (4), invocation count (1 to 4)
/// and feeds per request; one request in ten carries the `transient`
/// chaos profile and has a clean twin. Programs, invocation counts and
/// the chaos share are balanced, so every seed offers the same mix.
pub fn serve_hot_requests(rng: &mut Rng, sources: &[String], prefix: &str, n: usize) -> Vec<Req> {
    let programs = balanced(rng, sources.len(), n);
    let invocations = balanced(rng, 4, n);
    let chaos = balanced(rng, 10, n);
    (0..n)
        .map(|i| {
            let which = programs[i];
            let tenant = format!("tenant{}", rng.below(4));
            let invocations = 1 + invocations[i] as u64;
            let (feeds, state, expect) = family_case(rng, which, invocations);
            let chaos = (chaos[i] == 0).then(|| rng.next_word() % 1_000_000);
            let id = format!("{prefix}{i}");
            let src = &sources[which];
            let line = request_line(&id, &tenant, src, invocations, &feeds, &state, chaos);
            let twin = chaos.map(|_| {
                request_line(&format!("{id}-twin"), &tenant, src, invocations, &feeds, &state, None)
            });
            Req { line, expect: Some(expect), twin }
        })
        .collect()
}

/// serve-churn requests: every request is a distinct generated program
/// (vector length 8 to 32, default domain palette) with 1 to 3
/// invocations, checked against the model evaluator.
pub fn churn_requests(
    rng: &mut Rng,
    seen: &mut HashSet<String>,
    prefix: &str,
    n: usize,
) -> Vec<Req> {
    let cfg = GenConfig { min_n: 8, max_n: 32, ..GenConfig::default() };
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let prog = gen_program(rng, &cfg);
        let src = prog.to_pmlang();
        if !seen.insert(src.clone()) {
            continue;
        }
        let xs = gen_inputs(rng, prog.n);
        let ys = gen_inputs(rng, prog.n);
        let z0 = gen_inputs(rng, prog.n);
        let invocations = 1 + rng.below(3) as u64;
        let tenant = format!("tenant{}", rng.below(4));

        let expect = model_outputs(&prog, &xs, &ys, &z0, invocations).filter(|e| {
            // An oracle that a 1e-11 relative nudge of its leaves (inputs,
            // literals, indices) moves by more than the tolerance cannot
            // judge a legal reassociation (e.g. `sin` of a product of 26
            // factors, where one ulp of the product moves the result by
            // 1e-6 or more): count it as unchecked too.
            let nudged = model_outputs(
                &nudge_leaves(&prog),
                &nudge(&xs),
                &nudge(&ys),
                &nudge(&z0),
                invocations,
            );
            nudged.is_some_and(|n| check_outputs(&n, e).is_ok())
        });
        let n = prog.n;
        let feeds =
            vec![("x".into(), tensor_json(&[n], &xs)), ("y".into(), tensor_json(&[n], &ys))];
        let state =
            if prog.has_state() { vec![("z".into(), tensor_json(&[n], &z0))] } else { Vec::new() };
        let id = format!("{prefix}{}", out.len());
        let line = request_line(&id, &tenant, &src, invocations, &feeds, &state, None);
        out.push(Req { line, expect, twin: None });
    }
    out
}

/// Relative size of the conditioning nudge.
const NUDGE: f64 = 1e-11;

fn nudge(v: &[f64]) -> Vec<f64> {
    v.iter().map(|a| a + NUDGE * (1.0 + a.abs())).collect()
}

/// The program with every literal and index leaf nudged by [`NUDGE`].
fn nudge_leaves(prog: &PProgram) -> PProgram {
    fn walk(e: &mut PExpr) {
        match e {
            PExpr::Lit(v) => *v += NUDGE * (1.0 + v.abs()),
            PExpr::Idx => {
                *e = PExpr::Add(
                    Box::new(PExpr::Mul(Box::new(PExpr::Idx), Box::new(PExpr::Lit(1.0 + NUDGE)))),
                    Box::new(PExpr::Lit(NUDGE)),
                );
            }
            _ => e.children_mut().into_iter().for_each(walk),
        }
    }
    let mut p = prog.clone();
    for stmt in &mut p.stmts {
        match stmt {
            PStmt::Map(e, _) | PStmt::Reduce(_, e, _) => walk(e),
        }
    }
    if let Some(u) = &mut p.state_update {
        walk(u);
    }
    p
}

/// Final-invocation outputs of a generated program by the model
/// evaluator, or `None` when the model flags any invocation unstable.
fn model_outputs(
    prog: &PProgram,
    xs: &[f64],
    ys: &[f64],
    z0: &[f64],
    invocations: u64,
) -> Option<Expect> {
    let mut z = z0.to_vec();
    let mut out = Expect::new();
    for _ in 0..invocations {
        let step = prog.eval(xs, ys, Some(&z));
        if !step.stable {
            return None;
        }
        out.clear();
        for (j, v) in step.vecs.iter().enumerate() {
            out.insert(format!("t{j}"), v.clone());
        }
        for (j, s) in step.scalars.iter().enumerate() {
            out.insert(format!("s{j}"), vec![*s]);
        }
        if let Some(next) = step.state_next {
            z = next;
        }
    }
    Some(out)
}

/// Flattens a tensor's values (complex values interleaved).
pub fn tensor_values(t: &Tensor) -> Vec<f64> {
    if let Some(s) = t.as_real_slice() {
        s.to_vec()
    } else if let Some(c) = t.as_complex_slice() {
        c.iter().flat_map(|&(re, im)| [re, im]).collect()
    } else {
        t.scalar_value().map(|v| vec![v]).unwrap_or_default()
    }
}

/// Compares outputs against an oracle.
///
/// # Errors
///
/// The first output that is missing, extra, or outside the tolerance.
pub fn check_outputs(got: &BTreeMap<String, Vec<f64>>, want: &Expect) -> Result<(), String> {
    if got.keys().ne(want.keys()) {
        return Err(format!(
            "output names {:?}, oracle has {:?}",
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>()
        ));
    }
    for (name, w) in want {
        let g = &got[name];
        if g.len() != w.len() {
            return Err(format!("`{name}` has {} values, oracle has {}", g.len(), w.len()));
        }
        for (i, (a, b)) in g.iter().zip(w).enumerate() {
            if !close(*a, *b, TOLERANCE) {
                return Err(format!("`{name}`[{i}] = {a}, oracle says {b}"));
            }
        }
    }
    Ok(())
}

/// One program of the compile-large mix with reference-checked inputs.
#[derive(Debug, Clone)]
pub struct LargeProgram {
    pub name: &'static str,
    pub source: String,
    pub feeds: HashMap<String, Tensor>,
    pub state: Vec<(String, Tensor)>,
    pub expect: Expect,
}

fn real(dims: &[usize], v: Vec<f64>) -> Tensor {
    Tensor::from_vec(pmlang::DType::Float, dims.to_vec(), v).expect("shape matches data")
}

/// The compile-large mix: mpc-64, fft-256, kmeans-784, dct-block and
/// logistic-256, with seeded inputs and reference outputs.
pub fn large_programs(rng: &mut Rng) -> Vec<LargeProgram> {
    let mut out = Vec::new();

    let h = 64;
    let (c, b) = (3 * h, 2 * h);
    let randm = |rows: usize, cols: usize, rng: &mut Rng| -> Vec<Vec<f64>> {
        (0..rows).map(|_| rng.vec(cols, -0.1, 0.1)).collect()
    };
    let p = randm(c, 3, rng);
    let hm = randm(c, b, rng);
    let hq = randm(b, c, rng);
    let rg = randm(b, b, rng);
    let pos_ref = rng.vec(c, -1.0, 1.0);
    let pos = rng.vec(3, -1.0, 1.0);
    let ctrl0 = rng.vec(b, -0.1, 0.1);
    let mut ctrl = ctrl0.clone();
    let sgnl = reference::mpc_step(&pos, &mut ctrl, &p, &hm, &pos_ref, &hq, &rg, h);
    let flat = |m: &Vec<Vec<f64>>| m.iter().flatten().copied().collect::<Vec<f64>>();
    out.push(LargeProgram {
        name: "mpc-64",
        source: programs::mobile_robot(h),
        feeds: HashMap::from([
            ("pos".to_string(), real(&[3], pos)),
            ("P".to_string(), real(&[c, 3], flat(&p))),
            ("H".to_string(), real(&[c, b], flat(&hm))),
            ("pos_ref".to_string(), real(&[c], pos_ref)),
            ("HQ_g".to_string(), real(&[b, c], flat(&hq))),
            ("R_g".to_string(), real(&[b, b], flat(&rg))),
        ]),
        state: vec![("ctrl_mdl".to_string(), real(&[b], ctrl0))],
        expect: Expect::from([("ctrl_sgnl".to_string(), sgnl)]),
    });

    let n = 256;
    let signal: Vec<(f64, f64)> = (0..n).map(|_| (rng.range(-1.0, 1.0), 0.0)).collect();
    let mut spectrum = signal.clone();
    reference::fft(&mut spectrum);
    out.push(LargeProgram {
        name: "fft-256",
        source: programs::fft(n),
        feeds: HashMap::from([(
            "x".to_string(),
            Tensor::from_complex_vec(vec![n], signal).expect("shape matches data"),
        )]),
        state: Vec::new(),
        expect: Expect::from([(
            "X".to_string(),
            spectrum.iter().flat_map(|&(re, im)| [re, im]).collect(),
        )]),
    });

    let (f, k) = (784, 10);
    let x = rng.vec(f, 0.0, 1.0);
    let c0 = rng.vec(f * k, 0.0, 1.0);
    let mut centroids: Vec<Vec<f64>> = c0.chunks(f).map(<[f64]>::to_vec).collect();
    let assign = reference::kmeans_step(&x, &mut centroids);
    out.push(LargeProgram {
        name: "kmeans-784",
        source: programs::kmeans(f, k),
        feeds: HashMap::from([("x".to_string(), real(&[f], x))]),
        state: vec![("c".to_string(), real(&[k, f], c0))],
        expect: Expect::from([("assign".to_string(), vec![assign as f64])]),
    });

    let blk = rng.vec(64, 0.0, 255.0);
    let ck = datagen::dct_kernel();
    out.push(LargeProgram {
        name: "dct-block",
        source: programs::dct_block(),
        expect: Expect::from([("out".to_string(), reference::dct(&blk, 8, &ck))]),
        feeds: HashMap::from([
            ("blk".to_string(), real(&[8, 8], blk)),
            ("ck".to_string(), real(&[8, 8], ck)),
        ]),
        state: Vec::new(),
    });

    let f = 256;
    let x = rng.vec(f, -1.0, 1.0);
    let label = rng.below(2) as f64;
    let w0 = rng.vec(f, -0.1, 0.1);
    let mut w = w0.clone();
    let prob = reference::logistic_step(&x, label, &mut w);
    out.push(LargeProgram {
        name: "logistic-256",
        source: programs::logistic(f),
        feeds: HashMap::from([
            ("x".to_string(), real(&[f], x)),
            ("label".to_string(), Tensor::scalar(pmlang::DType::Float, label)),
        ]),
        state: vec![("w".to_string(), real(&[f], w0))],
        expect: Expect::from([("prob".to_string(), vec![prob])]),
    });
    out
}

/// Reads the `outputs` of a run response as flattened values, plus the
/// rendered bytes of the `outputs` object.
///
/// # Errors
///
/// The response's error kind, or a description of a malformed response.
pub fn response_outputs(resp: &str) -> Result<(BTreeMap<String, Vec<f64>>, String), String> {
    let v = Json::parse(resp).map_err(|e| format!("response is not JSON ({e}): {resp}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        let kind = v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
        return Err(kind.unwrap_or("malformed").to_string());
    }
    let outputs = v.get("outputs").ok_or_else(|| format!("response without outputs: {resp}"))?;
    let mut got = BTreeMap::new();
    for (name, t) in outputs.members().ok_or("outputs is not an object")? {
        let values = t
            .get("values")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("output `{name}` has no values"))?
            .iter()
            .map(|x| x.as_f64().unwrap_or(f64::NAN))
            .collect();
        got.insert(name.clone(), values);
    }
    Ok((got, outputs.render()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seeded() {
        let sources = serve_sources();
        let a = serve_hot_requests(&mut Rng::new(3), &sources, "r", 20);
        let b = serve_hot_requests(&mut Rng::new(3), &sources, "r", 20);
        assert!(a.iter().zip(&b).all(|(x, y)| x.line == y.line));
        let mut seen = HashSet::new();
        let churn = churn_requests(&mut Rng::new(3), &mut seen, "c", 30);
        assert_eq!(seen.len(), 30, "every churn program is distinct");
        assert_eq!(churn.len(), 30);
    }

    #[test]
    fn oracle_comparison_uses_relative_tolerance() {
        let want = Expect::from([("y".to_string(), vec![1000.0])]);
        let ok = BTreeMap::from([("y".to_string(), vec![1000.0005])]);
        let bad = BTreeMap::from([("y".to_string(), vec![1000.01])]);
        assert!(check_outputs(&ok, &want).is_ok());
        assert!(check_outputs(&bad, &want).is_err());
        assert!(check_outputs(&BTreeMap::new(), &want).is_err());
    }
}
