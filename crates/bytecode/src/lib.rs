//! # lpat-bytecode — the binary form
//!
//! Compact binary serialization of the representation (paper §2.5, §4.1.3):
//! the third of the three equivalent forms (in-memory / textual / binary).
//! The flat, three-address layout lets most instructions occupy a single
//! 32-bit word, with larger encodings only when operands do not fit; this
//! is what makes the on-disk representation comparable in size to native
//! CISC code despite carrying types, an explicit CFG, and SSA structure
//! (reproduced in the Figure 5 experiment).
//!
//! # Examples
//!
//! ```
//! let src = "
//! define int @inc(int %x) {
//! bb0:
//!   %y = add int %x, 1
//!   ret int %y
//! }";
//! let m = lpat_asm::parse_module("t", src).unwrap();
//! let bytes = lpat_bytecode::write_module(&m);
//! let m2 = lpat_bytecode::read_module("t", &bytes).unwrap();
//! assert_eq!(m.display(), m2.display());
//! ```

#![warn(missing_docs)]

pub mod format;
pub mod reader;
pub mod writer;

pub use format::DecodeError;
pub use reader::read_module;
pub use writer::{write_module, write_module_with, WriteOptions};

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) {
        let m = lpat_asm::parse_module("t", src).unwrap_or_else(|e| panic!("parse: {e}"));
        m.verify().unwrap();
        let bytes = write_module(&m);
        let m2 = read_module("t", &bytes).unwrap_or_else(|e| panic!("decode: {e}"));
        m2.verify()
            .unwrap_or_else(|e| panic!("reverify: {e:?}\n{}", m2.display()));
        assert_eq!(m.display(), m2.display());
    }

    #[test]
    fn roundtrips_arithmetic() {
        roundtrip(
            "
define int @f(int %a, int %b) {
bb0:
  %s = add int %a, %b
  %d = sub int %s, 3
  %m = mul int %d, %d
  %q = div int %m, %a
  %r = rem int %q, %b
  %c = setlt int %r, 100
  %x = cast bool %c to int
  ret int %x
}",
        );
    }

    #[test]
    fn roundtrips_control_flow() {
        roundtrip(
            "
define int @f(int %n) {
entry:
  br label %header
header:
  %i = phi int [ 0, %entry ], [ %i2, %body ]
  %c = setlt int %i, %n
  br bool %c, label %body, label %exit
body:
  %i2 = add int %i, 1
  br label %header
exit:
  switch int %i, label %d [ int 0, label %z int 1, label %z ]
z:
  ret int 0
d:
  ret int %i
}",
        );
    }

    #[test]
    fn roundtrips_memory_types_and_globals() {
        roundtrip(
            "
%node = type { int, %node* }
@head = global %node* null
@tab = internal constant [2 x int] [ int 1, int 2 ]
declare int @ext(sbyte*, ...)
define void @push(int %v) {
bb0:
  %n = malloc %node
  %pv = getelementptr %node* %n, long 0, ubyte 0
  store int %v, int* %pv
  %pn = getelementptr %node* %n, long 0, ubyte 1
  %h = load %node** @head
  store %node* %h, %node** %pn
  store %node* %n, %node** @head
  ret void
}
define void @pop() {
bb0:
  %h = load %node** @head
  %pn = getelementptr %node* %h, long 0, ubyte 1
  %nx = load %node** %pn
  store %node* %nx, %node** @head
  free %node* %h
  ret void
}",
        );
    }

    #[test]
    fn roundtrips_eh_and_calls() {
        roundtrip(
            "
declare void @may_throw(int)
define int @f(int %x) {
entry:
  invoke void @may_throw(int %x) to label %ok unwind label %h
ok:
  %r = call int @f(int 0)
  ret int %r
h:
  unwind
}",
        );
    }

    #[test]
    fn roundtrips_floats_alloca_vararg() {
        roundtrip(
            "
define double @f(int %n, ...) {
bb0:
  %buf = alloca double, uint 8
  %v = vaarg double
  store double %v, double* %buf
  %w = load double* %buf
  %s = add double %w, 0x4000000000000000
  ret double %s
}",
        );
    }

    #[test]
    fn compact_instructions_are_four_bytes() {
        // A straight-line run of small binops must encode at ~4 bytes per
        // instruction (the paper's "single 32-bit word" claim).
        let mut src = String::from("define int @f(int %a) {\nbb0:\n  %v0 = add int %a, %a\n");
        for i in 1..100 {
            src.push_str(&format!("  %v{i} = add int %v{}, %a\n", i - 1));
        }
        src.push_str("  ret int %v99\n}\n");
        let m = lpat_asm::parse_module("t", &src).unwrap();
        let empty = {
            let e = lpat_asm::parse_module("t", "define int @f(int %a) {\nbb0:\n  ret int %a\n}")
                .unwrap();
            write_module(&e).len()
        };
        let full = write_module(&m).len();
        // 100 extra adds ≈ 400 extra bytes (plus one byte of block-length
        // varint growth).
        let per_inst = (full - empty) as f64 / 100.0;
        assert!(per_inst <= 4.2, "per-instruction size {per_inst}");
    }

    #[test]
    fn wide_encoding_roundtrips_and_costs_more() {
        let src = "
define int @f(int %a, int %b) {
bb0:
  %s = add int %a, %b
  %t = mul int %s, %s
  %u = sub int %t, %a
  ret int %u
}";
        let m = lpat_asm::parse_module("t", src).unwrap();
        let compact = write_module(&m);
        let wide = write_module_with(
            &m,
            WriteOptions {
                compact_heads: false,
            },
        );
        assert!(
            wide.len() > compact.len(),
            "{} > {}",
            wide.len(),
            compact.len()
        );
        let m2 = read_module("t", &wide).unwrap();
        assert_eq!(m.display(), m2.display(), "wide form decodes identically");
    }

    #[test]
    fn rejects_corrupt_input() {
        assert!(read_module("t", b"NOPE").is_err());
        let m = lpat_asm::parse_module("t", "@g = global int 1").unwrap();
        let mut bytes = write_module(&m);
        bytes.truncate(bytes.len() - 1);
        assert!(read_module("t", &bytes).is_err());
        let mut padded = write_module(&m);
        padded.extend_from_slice(b"junk");
        assert_eq!(
            read_module("t", &padded).unwrap_err(),
            DecodeError("trailing bytes after module".into())
        );
    }

    /// One module, built after its pool has interned `pre` (unused unless
    /// the module uses it).
    fn built_after_interning(pre: &[i32]) -> Vec<u8> {
        use lpat_core::{Linkage, Module, Value};
        let mut m = Module::new("t");
        for &v in pre {
            m.consts.i32(v);
        }
        let i32t = m.types.i32();
        let arr = m.types.array(i32t, 3);
        let elems = vec![m.consts.i32(7), m.consts.i32(5), m.consts.i32(7)];
        let init = m.consts.array(arr, elems);
        m.add_global("t", arr, Some(init), false, Linkage::External);
        let f = m.add_function("f", &[i32t], i32t, false, Linkage::External);
        let case = m.consts.i32(9);
        let mut b = m.builder(f);
        b.block();
        let done = b.new_block();
        let five = b.iconst32(5);
        let x = b.add(Value::Arg(0), five);
        let nine = b.iconst32(9);
        let y = b.mul(x, nine);
        let z = b.add(y, five);
        b.switch(z, done, vec![(case, done)]);
        b.switch_to(done);
        b.ret(Some(z));
        m.verify().unwrap();
        write_module(&m)
    }

    #[test]
    fn constant_numbering_does_not_depend_on_interning_order() {
        let bytes = built_after_interning(&[]);
        assert_eq!(bytes, built_after_interning(&[9, 3, 7, 5]));
        assert_eq!(bytes, built_after_interning(&[7, 9]));
        // 5 is used three times (two operands, one element), 7 and 9 twice
        // each, the array once: 5 comes first, then 7 (met first, in the
        // initializer), then 9, then the array after its elements.
        let m = read_module("t", &bytes).unwrap();
        let pool: Vec<String> = m.consts.iter().map(|(_, c)| format!("{c:?}")).collect();
        assert!(
            pool[0].contains("value: 5") && pool[1].contains("value: 7"),
            "{pool:?}"
        );
        assert!(
            pool[2].contains("value: 9") && pool[3].starts_with("Array"),
            "{pool:?}"
        );
        assert_eq!(pool.len(), 4, "the unused 3 is not written: {pool:?}");
    }

    #[test]
    fn forward_layout_reference_types_resolve() {
        // bb1 uses a value defined in bb2; bb2 dominates bb1 despite later
        // layout position.
        roundtrip(
            "
define int @f(int %a) {
bb0:
  br label %bb2
bb1:
  %u = add int %d, 1
  ret int %u
bb2:
  %d = mul int %a, 2
  br label %bb1
}",
        );
    }
}
