//! # lpat-codegen — native code generation substrate
//!
//! Offline code generation for two synthetic 32-bit targets (paper §3.4;
//! the original supported x86 and SPARC V9):
//!
//! * [`cisc32::Cisc32`] — x86-shaped: variable-width encodings (1–10
//!   bytes), one foldable memory operand, 8-bit short immediates, stack
//!   argument passing, 6 allocatable registers;
//! * [`risc32::Risc32`] — SPARC-shaped: fixed 4-byte words, load/store
//!   architecture, 13-bit immediates with `sethi`/`or` splitting, branch
//!   delay slots, 20 allocatable registers.
//!
//! Both share one genuine backend pipeline — lowering (φ-elimination, GEP
//! address chains), linear-scan register allocation with spilling (the
//! [`regalloc`] the executable [`fast`] tier uses too), and compare/branch
//! fusion — and differ in their encoders. The resulting
//! section sizes regenerate the paper's Figure 5 (executable size:
//! representation bytecode vs. native X86 vs. native SPARC); the claim
//! under test is about instruction-encoding *density*, which these models
//! capture, not about executing the bytes.

#![warn(missing_docs)]

pub mod cisc32;
pub mod fast;
pub mod lower;
pub mod mir;
pub mod regalloc;
pub mod risc32;
pub mod target;

pub use cisc32::Cisc32;
pub use risc32::Risc32;
pub use target::{compile_module, Binary, FuncCode, Target};

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes(src: &str) -> (Binary, Binary, usize) {
        let m = lpat_asm::parse_module("t", src).unwrap();
        m.verify().unwrap();
        let cisc = compile_module(&m, &Cisc32);
        let risc = compile_module(&m, &Risc32);
        let ir = m.total_insts();
        (cisc, risc, ir)
    }

    const LOOPY: &str = "
@table = global [64 x int] zeroinitializer
define int @main(int %n) {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, %n
  br bool %c, label %b, label %x
b:
  %p = getelementptr [64 x int]* @table, long 0, int %i
  %v = load int* %p
  %t = mul int %v, 3
  %s2 = add int %s, %t
  %i2 = add int %i, 1
  br label %h
x:
  ret int %s
}";

    #[test]
    fn cisc_denser_than_risc() {
        let (cisc, risc, _) = sizes(LOOPY);
        assert!(
            cisc.code_size < risc.code_size,
            "cisc={} risc={}",
            cisc.code_size,
            risc.code_size
        );
    }

    #[test]
    fn risc_code_is_word_aligned_per_inst_cost() {
        let (_, risc, _) = sizes(LOOPY);
        assert_eq!(risc.code_size % 4, 0, "RISC bytes are whole words");
    }

    #[test]
    fn density_in_plausible_band() {
        // Native-code density per IR instruction should land in the band
        // the paper's Figure 5 implies: CISC ≈ 2–8 B/IR-inst, RISC
        // 1.1–2.5× the CISC bytes.
        let (cisc, risc, ir) = sizes(LOOPY);
        let cd = cisc.code_size as f64 / ir as f64;
        let ratio = risc.code_size as f64 / cisc.code_size as f64;
        assert!((2.0..=8.0).contains(&cd), "cisc density {cd}");
        assert!((1.1..=2.5).contains(&ratio), "risc/cisc ratio {ratio}");
    }

    #[test]
    fn spilling_kicks_in_with_register_pressure() {
        // 12 simultaneously-live values exceed cisc32's six registers.
        let mut src = String::from("define int @main(int %a) {\ne:\n");
        for i in 0..12 {
            src.push_str(&format!("  %v{i} = add int %a, {i}\n"));
        }
        // Use all of them afterwards so they're live simultaneously.
        src.push_str("  %s0 = add int %v0, %v1\n");
        for i in 1..11 {
            src.push_str(&format!("  %s{i} = add int %s{}, %v{}\n", i - 1, i + 1));
        }
        src.push_str("  ret int %s10\n}\n");
        let m = lpat_asm::parse_module("t", &src).unwrap();
        m.verify().unwrap();
        let f = m.func_by_name("main").unwrap();
        let mf = lower::lower_function(&m, f, Cisc32.reg_budget());
        assert!(mf.frame_size > 0, "expected spills");
        let mf = lower::lower_function(&m, f, Risc32.reg_budget());
        assert_eq!(mf.frame_size, 0, "20 registers are plenty");
    }

    #[test]
    fn code_size_is_a_function_of_the_module() {
        // Ten arguments, all used in the outer loop's body after the inner
        // loop, so every one is live around both loops: ten ranges that
        // start together for the allocator to order. Argument k is used
        // k + 1 times, so which ones it spills shows in the code size.
        // The scan order is (start, end, value number).
        let params: Vec<String> = (0..10).map(|k| format!("int %a{k}")).collect();
        let mut src = format!("define int @main({}) {{\n", params.join(", "));
        src.push_str(
            "e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %h ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s, %h ], [ %t9_9, %b ]
  %i2 = add int %i, 1
  %c = setlt int %i2, %a0
  br bool %c, label %h, label %b
b:
",
        );
        let mut acc = String::from("%s");
        for k in 0..10 {
            for u in 0..=k {
                src.push_str(&format!("  %t{k}_{u} = add int {acc}, %a{k}\n"));
                acc = format!("%t{k}_{u}");
            }
        }
        src.push_str(
            "  %c2 = setlt int %t9_9, %a1
  br bool %c2, label %h, label %x
x:
  ret int %t9_9
}
",
        );
        let m = lpat_asm::parse_module("t", &src).unwrap();
        m.verify().unwrap();
        for target in [&Cisc32 as &dyn Target, &Risc32] {
            let first = compile_module(&m, target).code_size;
            for _ in 1..100 {
                let again = compile_module(&m, target).code_size;
                assert_eq!(again, first, "{}", target.name());
            }
        }
    }

    #[test]
    fn globals_count_in_data_section() {
        let (cisc, _, _) = sizes(
            "
@blob = global [256 x sbyte] zeroinitializer
define void @main() {
e:
  ret void
}",
        );
        assert!(cisc.data_size >= 256);
    }

    #[test]
    fn switch_emits_table_data() {
        let (cisc, _, _) = sizes(
            "
define int @main(int %x) {
e:
  switch int %x, label %d [ int 0, label %a int 1, label %a int 2, label %a int 3, label %a ]
a:
  ret int 1
d:
  ret int 0
}",
        );
        assert!(cisc.data_size >= 16, "4 table entries");
    }

    #[test]
    fn declarations_emit_no_code() {
        let (cisc, _, _) = sizes("declare int @ext(int)\ndefine void @main() {\ne:\n  ret void\n}");
        assert_eq!(cisc.funcs.len(), 1);
        assert_eq!(cisc.funcs[0].name, "main");
    }

    #[test]
    fn bytecode_beats_risc_and_tracks_cisc() {
        // The Figure 5 shape on a mid-sized function.
        let m = lpat_asm::parse_module("t", LOOPY).unwrap();
        let bc = lpat_bytecode::write_module(&m).len();
        let cisc = compile_module(&m, &Cisc32).total;
        let risc = compile_module(&m, &Risc32).total;
        assert!(bc < risc, "bytecode {bc} vs risc {risc}");
        // Within 2x of CISC in either direction for tiny inputs.
        let ratio = bc as f64 / cisc as f64;
        assert!((0.3..=2.0).contains(&ratio), "bc/cisc ratio {ratio}");
    }
}
