//! System tests of the VLSI timing analyzer: engine agreement on
//! generated designs, incremental-vs-full equivalence over long modifier
//! sequences, and the monotonicity physics of the delay model. Every
//! update the rustflow engine runs is bounded ([`common::within_30s`]): a
//! wedged executor fails the suite after 30 s instead of hanging it.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use common::within_30s;
use proptest::prelude::*;
use rustflow::Executor;
use std::sync::Arc;
use tf_baselines::Pool;
use tf_timer::{CircuitSpec, DesignModifier, Engine, GateId, Timer};

/// `update(timer, engine)` on the rustflow engine over `ex`, bounded;
/// hands the timer back with what the update returned.
fn on_rustflow<T: Send + 'static>(
    what: &str,
    timer: Timer,
    ex: &Arc<Executor>,
    update: impl FnOnce(&Timer, &Engine) -> T + Send + 'static,
) -> (Timer, T) {
    let ex = Arc::clone(ex);
    within_30s(&format!("rustflow on {what}"), move || {
        let out = update(&timer, &Engine::V2Rustflow(&ex));
        (timer, out)
    })
}

fn approx(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn engines_agree_on_tv80_scale_design() {
    let circuit = CircuitSpec::tv80().scaled(0.2).generate();
    let n = circuit.num_gates();
    let seq = Timer::new(circuit.clone());
    seq.full_update(&Engine::Sequential);
    let pool = Pool::new(4);
    let v1 = Timer::new(circuit.clone());
    v1.full_update(&Engine::V1Levelized(&pool));
    let ex = Executor::new(4);
    let (v2, _) = on_rustflow("a full update", Timer::new(circuit), &ex, |t, e| {
        t.full_update(e)
    });
    for g in 0..n as GateId {
        assert!(approx(seq.arrival(g), v1.arrival(g)), "v1 arrival at {g}");
        assert!(approx(seq.arrival(g), v2.arrival(g)), "v2 arrival at {g}");
        assert!(approx(seq.slew(g), v2.slew(g)), "v2 slew at {g}");
    }
    assert!(approx(seq.worst_slack(), v1.worst_slack()));
    assert!(approx(seq.worst_slack(), v2.worst_slack()));
    assert_eq!(seq.critical_path(), v2.critical_path());
}

#[test]
fn long_incremental_sequence_stays_consistent() {
    // 60 modifier iterations: v2-incremental must equal full recompute.
    let circuit = CircuitSpec::small_test(800, 31).generate();
    let ex = Executor::new(3);
    let (mut incremental, _) =
        on_rustflow("a full update", Timer::new(circuit.clone()), &ex, |t, e| {
            t.full_update(e)
        });
    let mut oracle = Timer::new(circuit);
    oracle.full_update(&Engine::Sequential);

    let mut m1 = DesignModifier::new(incremental.circuit(), 7);
    let mut m2 = DesignModifier::new(oracle.circuit(), 7);
    for iter in 0..60 {
        let s1 = m1.apply(&mut incremental);
        let s2 = m2.apply(&mut oracle);
        assert_eq!(s1, s2);
        (incremental, _) = on_rustflow("an incremental update", incremental, &ex, move |t, e| {
            t.incremental_update(&s1, e)
        });
        // Oracle recomputes everything from scratch.
        oracle.full_update(&Engine::Sequential);
        assert!(
            approx(incremental.worst_slack(), oracle.worst_slack()),
            "iteration {iter}: {} vs {}",
            incremental.worst_slack(),
            oracle.worst_slack()
        );
    }
    // And the entire state, not just the headline number.
    for g in 0..incremental.circuit().num_gates() as GateId {
        assert!(
            approx(incremental.arrival(g), oracle.arrival(g)),
            "gate {g}"
        );
    }
}

#[test]
fn resizing_towards_larger_drive_speeds_up_its_cone() {
    let circuit = CircuitSpec::small_test(500, 5).generate();
    let mut timer = Timer::new(circuit);
    timer.full_update(&Engine::Sequential);
    // Find a combinational gate on the critical path and upsize it.
    let path = timer.critical_path();
    let victim = path.iter().copied().find(|&g| {
        tf_timer::GateKind::COMBINATIONAL.contains(&timer.circuit().gates[g as usize].kind)
            && timer.circuit().gates[g as usize].drive < 4.0
    });
    let Some(victim) = victim else {
        return; // pathological path of ports only — nothing to test
    };
    let endpoint = *path.last().expect("nonempty");
    let before = timer.arrival(endpoint);
    let seeds = timer.resize_gate(victim, 4.0);
    timer.incremental_update(&seeds, &Engine::Sequential);
    let after = timer.arrival(endpoint);
    assert!(
        after < before,
        "upsizing a critical gate did not speed up the endpoint: {before} -> {after}"
    );
}

#[test]
fn worst_slack_decreases_with_shorter_clock() {
    let mut spec = CircuitSpec::small_test(300, 9);
    spec.clock_period = 5000.0;
    let slow = Timer::new(spec.generate());
    slow.full_update(&Engine::Sequential);
    spec.clock_period = 500.0;
    let fast = Timer::new(spec.generate());
    fast.full_update(&Engine::Sequential);
    assert!(
        approx(slow.worst_slack() - fast.worst_slack(), 5000.0 - 500.0),
        "slack must shift by exactly the period difference"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_equals_full_on_random_designs(gates in 100usize..600, seed in 0u64..1000, mod_seed in 0u64..1000) {
        let circuit = CircuitSpec::small_test(gates, seed).generate();
        let mut inc = Timer::new(circuit.clone());
        inc.full_update(&Engine::Sequential);
        let mut m = DesignModifier::new(inc.circuit(), mod_seed);
        for _ in 0..5 {
            let seeds = m.apply(&mut inc);
            inc.incremental_update(&seeds, &Engine::Sequential);
        }
        // Rebuild an oracle circuit with the final drives and recompute.
        let mut oracle_circuit = circuit;
        for (g, og) in inc.circuit().gates.iter().zip(oracle_circuit.gates.iter_mut()) {
            og.drive = g.drive;
        }
        let oracle = Timer::new(oracle_circuit);
        oracle.full_update(&Engine::Sequential);
        for g in 0..inc.circuit().num_gates() as GateId {
            prop_assert!(approx(inc.arrival(g), oracle.arrival(g)), "gate {}", g);
            prop_assert!(approx(inc.slew(g), oracle.slew(g)), "slew {}", g);
        }
        prop_assert!(approx(inc.worst_slack(), oracle.worst_slack()));
    }
}

/// Arrival and slew of every gate, bit for bit: every engine evaluates the
/// same arcs from the same inputs, so not even the last bit may differ.
fn same_timing_bits(a: &Timer, b: &Timer) -> Result<(), String> {
    for g in 0..a.circuit().num_gates() as GateId {
        let (x, y) = (
            (a.arrival(g).to_bits(), a.slew(g).to_bits()),
            (b.arrival(g).to_bits(), b.slew(g).to_bits()),
        );
        if x != y {
            return Err(format!("gate {g}: {x:x?} != {y:x?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn v2_equals_sequential_twin_bit_for_bit_after_every_update(
        gates in 50usize..2000,
        seed in 0u64..1000,
        mod_seed in 0u64..1000,
        workers in 0usize..3,
        updates in 1usize..16,
    ) {
        let circuit = CircuitSpec::small_test(gates, seed).generate();
        let ex = Executor::new([1, 2, 4][workers]);
        let mut twin = Timer::new(circuit.clone());
        let (mut v2, touched) =
            on_rustflow("a full update", Timer::new(circuit), &ex, |t, e| t.full_update(e));
        prop_assert_eq!(touched, twin.full_update(&Engine::Sequential));
        prop_assert_eq!(same_timing_bits(&v2, &twin), Ok(()));
        let mut m_v2 = DesignModifier::new(v2.circuit(), mod_seed);
        let mut m_twin = DesignModifier::new(twin.circuit(), mod_seed);
        for _ in 0..updates {
            let seeds = m_v2.apply(&mut v2);
            prop_assert_eq!(&seeds, &m_twin.apply(&mut twin));
            let twin_touched = twin.incremental_update(&seeds, &Engine::Sequential);
            let touched;
            (v2, touched) = on_rustflow("an incremental update", v2, &ex, move |t, e| {
                t.incremental_update(&seeds, e)
            });
            prop_assert_eq!(touched, twin_touched);
            prop_assert_eq!(same_timing_bits(&v2, &twin), Ok(()));
        }
    }
}

#[test]
fn v2_equals_sequential_twin_on_every_small_region_size() {
    use tf_timer::{Circuit, GateKind};
    // inp -> 100 buffers -> out: resizing buffer `g` re-times the chain
    // from its fanin to the output, so every region size from 3 to 102
    // comes up, and with it one gate short of a v2 block, exactly one
    // block, one gate over, and two blocks and a gate, for any block size
    // from 4 to 50.
    const BUFFERS: u32 = 100;
    let mut c = Circuit::new(5000.0);
    let mut prev = c.add_gate(GateKind::Input, 1.0);
    for _ in 0..BUFFERS {
        let buf = c.add_gate(GateKind::Buf, 1.0);
        c.connect(prev, buf);
        prev = buf;
    }
    let out = c.add_gate(GateKind::Output, 1.0);
    c.connect(prev, out);

    for workers in [1, 2, 4] {
        let ex = Executor::new(workers);
        let (mut v2, _) = on_rustflow("a full update", Timer::new(c.clone()), &ex, |t, e| {
            t.full_update(e)
        });
        let mut twin = Timer::new(c.clone());
        twin.full_update(&Engine::Sequential);
        for g in (1..=BUFFERS).rev() {
            let drive = if g % 2 == 0 { 2.0 } else { 4.0 };
            let seeds = v2.resize_gate(g, drive);
            assert_eq!(seeds, twin.resize_gate(g, drive));
            let region = (out - g + 2) as usize; // fanin, g, ..., out
            assert_eq!(twin.incremental_update(&seeds, &Engine::Sequential), region);
            let touched;
            (v2, touched) = on_rustflow("an incremental update", v2, &ex, move |t, e| {
                t.incremental_update(&seeds, e)
            });
            assert_eq!(touched, region);
            assert_eq!(same_timing_bits(&v2, &twin), Ok(()), "region of {region}");
        }
        // A region of one gate: the output port alone.
        let touched;
        (v2, touched) = on_rustflow("a one-gate update", v2, &ex, move |t, e| {
            t.incremental_update(&[out], e)
        });
        assert_eq!(touched, 1);
        assert_eq!(same_timing_bits(&v2, &twin), Ok(()));
    }
}

#[test]
fn backward_pass_slacks_consistent_across_engines() {
    let circuit = CircuitSpec::small_test(600, 77).generate();
    let n = circuit.num_gates();

    let seq = Timer::new(circuit.clone());
    seq.full_update(&Engine::Sequential);
    seq.update_required(&Engine::Sequential);

    let pool = Pool::new(3);
    let v1 = Timer::new(circuit.clone());
    v1.full_update(&Engine::V1Levelized(&pool));
    v1.update_required(&Engine::V1Levelized(&pool));

    let ex = Executor::new(3);
    let (v2, _) = on_rustflow(
        "a full and a backward update",
        Timer::new(circuit),
        &ex,
        |t, e| {
            t.full_update(e);
            t.update_required(e)
        },
    );

    for g in 0..n as GateId {
        let a = seq.required(g);
        let b = v1.required(g);
        let c = v2.required(g);
        if a.is_finite() {
            assert!(approx(a, b), "v1 required at {g}: {a} vs {b}");
            assert!(approx(a, c), "v2 required at {g}: {a} vs {c}");
        } else {
            assert!(!b.is_finite() && !c.is_finite(), "finiteness at {g}");
        }
    }
}

#[test]
fn worst_gate_slack_matches_worst_endpoint_slack() {
    let circuit = CircuitSpec::small_test(800, 123).generate();
    let timer = Timer::new(circuit);
    timer.full_update(&Engine::Sequential);
    timer.update_required(&Engine::Sequential);

    // The minimum per-gate slack over the design equals the worst
    // endpoint slack: slack is constant along the critical path.
    let n = timer.circuit().num_gates() as GateId;
    let min_gate_slack = (0..n)
        .map(|g| timer.gate_slack(g))
        .fold(f64::INFINITY, f64::min);
    assert!(
        approx(min_gate_slack, timer.worst_slack()),
        "{min_gate_slack} vs {}",
        timer.worst_slack()
    );

    // Every gate on the critical path carries (approximately) the worst
    // slack.
    for &g in &timer.critical_path() {
        let s = timer.gate_slack(g);
        // DFF endpoints report their D-side check through endpoint_slack,
        // not gate_slack (which is Q-side); skip them here.
        if timer.circuit().gates[g as usize].kind == tf_timer::GateKind::Dff {
            continue;
        }
        assert!(
            s <= timer.worst_slack() + 1e-6,
            "critical-path gate {g} has slack {s} > worst {}",
            timer.worst_slack()
        );
    }
}

#[test]
fn unconstrained_gates_have_infinite_slack() {
    use tf_timer::{Circuit, GateKind};
    // inp -> inv -> (dangling inv2)  and  inp -> buf -> out
    let mut c = Circuit::new(1000.0);
    let inp = c.add_gate(GateKind::Input, 1.0);
    let inv = c.add_gate(GateKind::Inv, 1.0);
    let dangling = c.add_gate(GateKind::Inv, 1.0);
    let buf = c.add_gate(GateKind::Buf, 1.0);
    let out = c.add_gate(GateKind::Output, 1.0);
    c.connect(inp, inv);
    c.connect(inv, dangling);
    c.connect(inp, buf);
    c.connect(buf, out);
    let timer = Timer::new(c);
    timer.full_update(&Engine::Sequential);
    timer.update_required(&Engine::Sequential);
    // The dangling inverter constrains nothing.
    assert!(timer.gate_slack(dangling).is_infinite());
    // The constrained path has finite slack everywhere.
    for g in [inp, buf, out] {
        assert!(timer.gate_slack(g).is_finite(), "gate {g}");
    }
    // inv only feeds the dangling gate -> also unconstrained.
    assert!(timer.required(inv).is_infinite());
}
