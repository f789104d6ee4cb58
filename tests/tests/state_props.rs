//! Property tests for the two mechanisms the random-program generator
//! doesn't reach: persistent `state` across invocations, and complex
//! arithmetic through the FFT pipeline on random inputs.

use pm_workloads::{programs, reference};
use polymath::Compiler;
use proptest::prelude::*;
use srdfg::{Bindings, Tensor};
use std::collections::HashMap;

const N: usize = 4;

/// A stateful accumulator program: `s` evolves by a randomly shaped
/// update over itself and the input, and `y` observes it.
/// decay/gain/bias parameterize `s[i] = decay*s[i] + gain*x[i] + bias`,
/// with an optional absolute value and an optional coupling to the
/// reversed input (exercises strided reads of state).
#[derive(Debug, Clone)]
struct StateUpdate {
    decay: f64,
    gain: f64,
    bias: f64,
    abs: bool,
    couple_reverse: bool,
}

impl StateUpdate {
    fn to_pmlang(&self) -> String {
        let m = N - 1;
        let core = format!(
            "{:?}*s[i] + {:?}*x[i] + {:?}{}",
            self.decay,
            self.gain,
            self.bias,
            if self.couple_reverse { format!(" + s[{m}-i]") } else { String::new() }
        );
        let rhs = if self.abs { format!("abs({core})") } else { core };
        format!(
            "main(input float x[{N}], state float s[{N}], output float y) {{
    index i[0:{m}];
    s[i] = {rhs};
    y = sum[i](s[i]);
}}"
        )
    }

    fn step(&self, s: &[f64], x: &[f64]) -> Vec<f64> {
        (0..N)
            .map(|i| {
                let mut v = self.decay * s[i] + self.gain * x[i] + self.bias;
                if self.couple_reverse {
                    // PMLang statements read the *pre-update* state
                    // everywhere in the RHS (SSA semantics).
                    v += s[N - 1 - i];
                }
                if self.abs {
                    v = v.abs();
                }
                v
            })
            .collect()
    }
}

fn update_strategy() -> impl Strategy<Value = StateUpdate> {
    (-1.0..1.0f64, -2.0..2.0f64, -1.0..1.0f64, proptest::bool::ANY, proptest::bool::ANY).prop_map(
        |(decay, gain, bias, abs, couple_reverse)| StateUpdate {
            decay: (decay * 16.0).round() / 16.0,
            gain: (gain * 16.0).round() / 16.0,
            bias: (bias * 16.0).round() / 16.0,
            abs,
            couple_reverse,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `state` persists and evolves across invocations exactly as the
    /// direct step function predicts, through the full cross-domain
    /// compile (state residency is what the SoC's DMA accounting and
    /// TABLA's weight model rely on).
    #[test]
    fn state_evolves_like_the_reference(
        update in update_strategy(),
        seed in proptest::collection::vec(-2.0..2.0f64, N),
        inputs in proptest::collection::vec(
            proptest::collection::vec(-2.0..2.0f64, N), 1..5),
    ) {
        let src = update.to_pmlang();
        let compiled = Compiler::cross_domain()
            .compile(&src, &Bindings::default())
            .map_err(|e| TestCaseError::fail(format!("{e}\n{src}")))?;
        let mut machine = compiled.machine();
        machine.set_state(
            "s",
            Tensor::from_vec(pmlang::DType::Float, vec![N], seed.clone()).unwrap(),
        );

        let mut s = seed;
        for x in &inputs {
            let feeds = HashMap::from([(
                "x".to_string(),
                Tensor::from_vec(pmlang::DType::Float, vec![N], x.clone()).unwrap(),
            )]);
            let out = machine
                .invoke(&feeds)
                .map_err(|e| TestCaseError::fail(format!("{e}\n{src}")))?;
            s = update.step(&s, x);
            let expect: f64 = s.iter().sum();
            let got = out["y"].scalar_value().unwrap();
            prop_assert!(
                (got - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
                "y = {got}, expected {expect}\n{src}"
            );
        }
    }

    /// FFT-16 on random complex inputs matches the reference DFT after
    /// cross-domain lowering (twiddle constant-folding, complex kernels,
    /// index-arithmetic butterflies).
    #[test]
    fn fft_matches_dft_on_random_inputs(
        re in proptest::collection::vec(-1.0..1.0f64, 16),
        im in proptest::collection::vec(-1.0..1.0f64, 16),
    ) {
        let input: Vec<(f64, f64)> =
            re.iter().zip(&im).map(|(&r, &i)| (r, i)).collect();
        let compiled = Compiler::cross_domain()
            .compile(&programs::fft(16), &Bindings::default())
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let feeds = HashMap::from([(
            "x".to_string(),
            Tensor::from_complex_vec(vec![16], input.clone()).unwrap(),
        )]);
        let out = compiled.machine()
            .invoke(&feeds)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let expect = reference::dft(&input);
        let got = out["X"].as_complex_slice().unwrap();
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!(
                (g.0 - e.0).abs() < 1e-9 && (g.1 - e.1).abs() < 1e-9,
                "{g:?} vs {e:?}"
            );
        }
    }
}
