//! Circuit inversion with constraint idioms: run a binary adder
//! *backwards* on the simulated annealer.
//!
//! NchooseK constraints encode each logic gate of a 2-bit adder
//! (`xor_equals` / `and_equals` / `or_equals` read straight off truth
//! tables — the paper's §VI-C ease-of-construction argument). Pinning
//! the *output* sum and asking for satisfying assignments inverts the
//! circuit: which inputs produce this sum?
//!
//! Run with: `cargo run --release --example adder_inversion`

use nchoosek::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 2-bit adder: (a1 a0) + (b1 b0) = (s2 s1 s0).
    let mut p = Program::new();
    let a0 = p.new_var("a0")?;
    let a1 = p.new_var("a1")?;
    let b0 = p.new_var("b0")?;
    let b1 = p.new_var("b1")?;
    let s0 = p.new_var("s0")?;
    let s1 = p.new_var("s1")?;
    let s2 = p.new_var("s2")?;
    let c0 = p.new_var("carry0")?;
    let x1 = p.new_var("x1")?; // a1 ⊕ b1
    let g1 = p.new_var("g1")?; // a1 ∧ b1
    let t1 = p.new_var("t1")?; // x1 ∧ c0

    // Bit 0: half adder.
    p.xor_equals(a0, b0, s0)?;
    p.and_equals(a0, b0, c0)?;
    // Bit 1: full adder from two halves.
    p.xor_equals(a1, b1, x1)?;
    p.xor_equals(x1, c0, s1)?;
    p.and_equals(a1, b1, g1)?;
    p.and_equals(x1, c0, t1)?;
    p.or_equals(g1, t1, s2)?;

    // Invert: which (a, b) sum to 5 = 101₂?
    p.assign(s0, true)?;
    p.assign(s1, false)?;
    p.assign(s2, true)?;

    println!(
        "2-bit adder as {} NchooseK constraints over {} variables; output pinned to 5",
        p.constraints().len(),
        p.num_vars()
    );

    let annealer = AnnealerBackend::new(AnnealerDevice::advantage_4_1(), 100);
    let out = ExecutionPlan::new(&p).run(&annealer, 21)?;
    let bit = |v: Var| u32::from(out.assignment[v.index()]);
    let a = bit(a0) + 2 * bit(a1);
    let b = bit(b0) + 2 * bit(b1);
    println!("annealer ({}) found {a} + {b} = {}", out.quality, a + b);
    assert_eq!(a + b, 5, "inverted adder must produce the pinned sum");

    // Exhaustively list every preimage classically.
    println!("\nall preimages of 5 (classical enumeration):");
    for bits in 0..16u64 {
        let mut x = vec![false; p.num_vars()];
        x[a0.index()] = bits & 1 == 1;
        x[a1.index()] = bits >> 1 & 1 == 1;
        x[b0.index()] = bits >> 2 & 1 == 1;
        x[b1.index()] = bits >> 3 & 1 == 1;
        // Complete the internal wires to their forced values.
        let (va0, va1, vb0, vb1) = (x[a0.index()], x[a1.index()], x[b0.index()], x[b1.index()]);
        x[s0.index()] = va0 ^ vb0;
        x[c0.index()] = va0 & vb0;
        x[x1.index()] = va1 ^ vb1;
        x[s1.index()] = x[x1.index()] ^ x[c0.index()];
        x[g1.index()] = va1 & vb1;
        x[t1.index()] = x[x1.index()] & x[c0.index()];
        x[s2.index()] = x[g1.index()] | x[t1.index()];
        if p.all_hard_satisfied(&x) {
            let a = u32::from(va0) + 2 * u32::from(va1);
            let b = u32::from(vb0) + 2 * u32::from(vb1);
            println!("  {a} + {b}");
        }
    }
    Ok(())
}
