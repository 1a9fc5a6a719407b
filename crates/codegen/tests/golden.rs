//! Golden encoding fixtures.
//!
//! Two layers, matching the two kinds of encoder in this crate:
//!
//! * **Byte-exact word fixtures** for the executable single-pass backend
//!   (`fast`): each opcode family is pinned to the exact `u32` words
//!   `translate_fast` emits for a small fixture function. These words are
//!   *executed* by `lpat_vm::native`, so any encoding drift is a
//!   semantics change and must show up here as a conscious diff, not
//!   silently. The expected arrays were transcribed from a verified run
//!   and spot-checked against the field accessors in [`enc`].
//! * **Size-model fixtures** for the offline `cisc32`/`risc32` encoders:
//!   those model instruction-encoding *density* (Figure 5), not
//!   execution, so their goldens are exact section sizes.

use lpat_codegen::fast::{enc, translate_fast, FastEnv, FastFunc};
use lpat_codegen::{compile_module, Cisc32, Risc32};

/// Translate `@name` under a fixed synthetic address layout so function
/// and global addresses — and therefore the golden words — are stable.
fn translate(src: &str, name: &str) -> FastFunc {
    let m = lpat_asm::parse_module("t", src).unwrap();
    m.verify().unwrap_or_else(|e| panic!("{e:?}"));
    let fid = m.func_by_name(name).unwrap();
    let env = FastEnv {
        func_addr: &|f| 0x1000 + (f.index() as u32) * 16,
        global_addr: &|i| Some(0x2000 + (i as u32) * 64),
        guarded: &|_| false,
    };
    translate_fast(&m, fid, &env).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Render words as `op:word` pairs for failure messages.
fn dis(words: &[u32]) -> String {
    words
        .iter()
        .map(|&w| format!("{:02x}:{:08x}", enc::op(w), w))
        .collect::<Vec<_>>()
        .join(" ")
}

#[track_caller]
fn assert_words(ff: &FastFunc, expect: &[u32]) {
    assert_eq!(
        ff.words,
        expect,
        "\n  got:    {}\n  expect: {}",
        dis(&ff.words),
        dis(expect)
    );
}

/// Opcode of every non-[`enc::ACCT`] word, in order — the family shape
/// without the operand detail, so failures read as a diff of mnemonics.
fn ops(ff: &FastFunc) -> Vec<u8> {
    ff.words
        .iter()
        .map(|&w| enc::op(w))
        .filter(|&o| o != enc::ACCT)
        .collect()
}

#[test]
fn golden_alu_family() {
    // Three-address R-format for every two-operand ALU op; each IR
    // instruction is preceded by its ACCT fuel word. Each result takes
    // the home of the previous one, which dies at it.
    let ff = translate(
        "define int @alu(int %a, int %b) {
e:
  %s = add int %a, %b
  %d = sub int %s, %b
  %m = mul int %d, %b
  %x = xor int %m, %b
  %o = or int %x, %b
  %n = and int %o, %b
  ret int %n
}",
        "alu",
    );
    assert_words(
        &ff,
        &[
            0x00000010, 0x01210a00, // acct; add  r4, r4(%a), r5(%b)
            0x00000011, 0x02210a00, // acct; sub  r4, r4, r5
            0x00000012, 0x03210a00, // acct; mul  r4, r4, r5
            0x00000017, 0x07210a00, // acct; xor  r4, r4, r5
            0x00000016, 0x06210a00, // acct; or   r4, r4, r5
            0x00000015, 0x05210a00, // acct; and  r4, r4, r5
            0x00000000, 0x2c01000b, // acct; ret  r4 (S32)
        ],
    );
    assert_eq!(
        ops(&ff),
        [
            enc::ADD,
            enc::SUB,
            enc::MUL,
            enc::XOR,
            enc::OR,
            enc::AND,
            enc::RET
        ]
    );
    assert_eq!(ff.n_slots, 0, "2 live values fit the 28 register homes");
    // Spot-check the R-format fields of the dependent chain: each op
    // reads the previous result in `ra` and `%b`'s home in `rb`, and
    // writes the home it read.
    let (add, sub) = (ff.words[1], ff.words[3]);
    assert_eq!(enc::op(add), enc::ADD);
    assert_eq!(enc::rd(add), 4);
    assert_eq!(enc::ra(sub), enc::rd(add), "sub reads add's result");
    assert_eq!(enc::rd(sub), enc::ra(sub), "and takes its home");
    assert_eq!(enc::rb(sub), enc::rb(add), "%b's home is read by both");
}

#[test]
fn golden_shift_div_family() {
    // Constant shift amounts are immediates, masked to the width at
    // translation. Signed `shr` selects SRAI, unsigned SRLI; signed
    // div/rem select DIVS/REMS, which take no immediate: the 7 is built
    // in scratch, as the destination is the dividend's home. A cast that
    // keeps the low word and shares its source's home costs no word.
    let ff = translate(
        "define int @shifts(int %a, uint %u) {
e:
  %l = shl int %a, 3
  %r = shr int %l, 2
  %q = shr uint %u, 1
  %c = cast uint %q to int
  %d = div int %r, %c
  %m = rem int %d, 7
  ret int %m
}",
        "shifts",
    );
    assert_words(
        &ff,
        &[
            0x00000018, 0x16210003, //             acct; slli r4, r4(%a), 3
            0x00000019, 0x1e210002, //             acct; srai r4, r4, 2
            0x00000019, 0x17294001, //             acct; srli r5, r5(%u), 1
            0x0000000e, //                         acct (uint→int cast, in r5)
            0x00000013, 0x0b290a00, //             acct; divs r5, r4, r5
            0x00000014, 0x19100007, 0x0d294400, // acct; ldi r2, 7;  rems r5, r5, r2
            0x00000000, 0x2c01400b, //             acct; ret r5 (S32)
        ],
    );
    assert_eq!(
        ops(&ff),
        [
            enc::SLLI,
            enc::SRAI,
            enc::SRLI,
            enc::DIVS,
            enc::LDI,
            enc::REMS,
            enc::RET
        ]
    );
}

#[test]
fn golden_cmp_branch_family() {
    // A compare used by a branch: CMP writes the flag register, CBNZ
    // consumes it with a paired fall-through BR word after it (the taken
    // path skips that word).
    let ff = translate(
        "define bool @cmp(int %a, int %b) {
e:
  %lt = setlt int %a, %b
  br bool %lt, label %t, label %f
t:
  ret bool %lt
f:
  %eq = seteq int %a, %b
  ret bool %eq
}",
        "cmp",
    );
    assert_words(
        &ff,
        &[
            0x0000001c, 0x0f310a02, // acct; cmp.lt r6, r4(%a), r5(%b)
            0x00000001, 0x29018000, 0x28000001, // acct; cbnz r6 → edge 0; br edge 1
            0x00000000, 0x2c018001, // acct; ret r6 (Bool)
            0x0000001a, 0x0f290a00, // acct; cmp.eq r5, r4, r5
            0x00000000, 0x2c014001, // acct; ret r5 (Bool)
        ],
    );
    assert_eq!(
        ops(&ff),
        [enc::CMP, enc::CBNZ, enc::BR, enc::RET, enc::CMP, enc::RET]
    );
    // CBNZ names edge 0; its paired fall-through BR names edge 1.
    assert_eq!(ff.edges.len(), 2);
    assert_eq!(enc::uimm14(ff.words[3]), 0);
    assert_eq!(ff.words[4] & 0x00FF_FFFF, 1);
}

#[test]
fn golden_immediate_family() {
    // Small constants fold into ADDI's signed 14-bit immediate; wide
    // constants split into LUI (high 19 bits) + ORI (low 13 bits):
    // 123456789 = 0x75BCD15 = (0x3ADE << 13) | 0xD15, built in scratch
    // here because the destination is `%s`'s home, still to be read.
    let ff = translate(
        "define int @imm(int %a) {
e:
  %s = add int %a, 11
  %b = add int %s, 123456789
  ret int %b
}",
        "imm",
    );
    assert_words(
        &ff,
        &[
            0x00000010, 0x1821000b, //             acct; addi r4, r4(%a), 11
            0x00000010, 0x1a103ade, 0x1b108d15,
            0x01210400, // acct; lui r2, 0x3ade; ori r2, r2, 0xd15; add r4, r4, r2
            0x00000000, 0x2c01000b, //             acct; ret r4 (S32)
        ],
    );
    assert_eq!(
        ops(&ff),
        [enc::ADDI, enc::LUI, enc::ORI, enc::ADD, enc::RET]
    );
    // The LUI/ORI pair reassembles exactly the constant's low 32 bits.
    let (lui, ori) = (ff.words[3], ff.words[4]);
    assert_eq!(enc::op(lui), enc::LUI);
    assert_eq!(enc::op(ori), enc::ORI);
    assert_eq!((lui & 0x7FFFF) << 13 | (ori & 0x1FFF), 123_456_789);
}

#[test]
fn golden_memory_family() {
    // Typed LD/ST: the class code rides the R-format extra field so the
    // emulator reproduces the interpreter's exact width/sign semantics.
    let ff = translate(
        "define int @mem(int* %p, int %v) {
e:
  store int %v, int* %p
  %r = load int* %p
  ret int %r
}",
        "mem",
    );
    assert_words(
        &ff,
        &[
            0x0000000a, 0x21014805, // acct; st [r5(%p)], r4(%v)  (class S32)
            0x00000009, 0x20294005, // acct; ld r5, [r5]  (class S32)
            0x00000000, 0x2c01400b, // acct; ret r5 (S32)
        ],
    );
    assert_eq!(ops(&ff), [enc::ST, enc::LD, enc::RET]);
}

#[test]
fn golden_alloc_family() {
    // ALLOC's extra-field flag bits select stack vs. heap and count-one
    // vs. counted; FREE releases a heap cell.
    let ff = translate(
        "define int @alloc(uint %n) {
e:
  %a = alloca int
  store int 7, int* %a
  %h = malloc int, uint %n
  free int* %h
  %r = load int* %a
  ret int %r
}",
        "alloc",
    );
    assert_words(
        &ff,
        &[
            0x00000008, 0x19100004,
            0x22280403, // acct; ldi r2, 4;  alloc r5, r2 (stack, count-one)
            0x0000000a, 0x19100007, 0x21014405, // acct; ldi r2, 7;  st [r5], r2 (S32)
            0x00000006, 0x19100004,
            0x22210404, // acct; ldi r2, 4;  alloc r4, r2 × r4(%n) (heap, unsigned count)
            0x00000007, 0x23010000, //             acct; free r4
            0x00000009, 0x20294005, //             acct; ld r5, [r5] (S32)
            0x00000000, 0x2c01400b, //             acct; ret r5 (S32)
        ],
    );
    assert_eq!(
        ops(&ff),
        [
            enc::LDI,
            enc::ALLOC,
            enc::LDI,
            enc::ST,
            enc::LDI,
            enc::ALLOC,
            enc::FREE,
            enc::LD,
            enc::RET
        ]
    );
    // Stack alloca carries flag bit 1; the heap malloc with an unsigned
    // register count carries bit 4 (and not bit 2: the count is live).
    let (stack, heap) = (ff.words[2], ff.words[8]);
    assert_eq!(enc::extra(stack) & 1, 1);
    assert_eq!(enc::extra(heap) & 1, 0);
    assert_eq!(enc::extra(heap) & 4, 4);
}

#[test]
fn golden_control_flow_family() {
    // A counted loop: φs become edge copies (no words), branches name
    // edge-table entries, and every block's first word is an OSR entry.
    let ff = translate(
        "define int @flow(int %n) {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %c = setlt int %i, %n
  br bool %c, label %b, label %x
b:
  %i2 = add int %i, 1
  br label %h
x:
  ret int %i
}",
        "flow",
    );
    assert_words(
        &ff,
        &[
            0x00000001, 0x28000000, // acct; br edge 0  (e → h, copies 0 → %i)
            0x0000001c, 0x0f314802, // acct; cmp.lt r6, r5(%i), r4(%n)
            0x00000001, 0x29018001, 0x28000002, // acct; cbnz r6 → edge 1; br edge 2
            0x00000010, 0x18294001, // acct; addi r5, r5, 1
            0x00000001, 0x28000003, // acct; br edge 3  (back-edge b → h)
            0x00000000, 0x2c01400b, // acct; ret r5 (S32)
        ],
    );
    assert_eq!(ff.block_word.len(), 4);
    // %i2 takes %i's home, which dies at it, so the back edge that
    // carries %i2 into %i copies nothing.
    let back = ff.edges.iter().find(|e| e.back).expect("loop back-edge");
    assert_eq!((back.from, back.to), (2, 1));
    assert_eq!(back.copies.len(), 0);
}

#[test]
fn golden_call_ret_family() {
    // Calls are one CALLD word naming an out-of-line descriptor; the
    // return value class rides RET's immediate bits.
    let ff = translate(
        "define int @callee(int %x) {
e:
  %r = mul int %x, 3
  ret int %r
}
define int @call(int %a) {
e:
  %r = call int @callee(int %a)
  ret int %r
}",
        "call",
    );
    assert_words(
        &ff,
        &[
            0x0000000d, 0x2b000000, // acct; calld desc 0
            0x00000000, 0x2c01000b, // acct; ret r4 (S32)
        ],
    );
    assert_eq!(ops(&ff), [enc::CALLD, enc::RET]);
    assert_eq!(ff.calls.len(), 1);
    let c = &ff.calls[0];
    assert_eq!(c.args.len(), 1);
    assert!(c.dst.is_some(), "call result is used");
    assert!(c.eh.is_none(), "plain call, not invoke");
}

#[test]
fn golden_switch_unwind_family() {
    // SWITCH names an out-of-line case table; UNWIND is a bare E-word.
    let ff = translate(
        "define int @switch(int %x) {
e:
  switch int %x, label %d [ int 1, label %a int 2, label %b ]
a:
  ret int 10
b:
  ret int 20
d:
  unwind
}",
        "switch",
    );
    assert_words(
        &ff,
        &[
            0x00000002, 0x2a010000, // acct; switch r4, table 0
            0x00000000, 0x1908000a, 0x2c00400b, // acct; ldi r1, 10;  ret r1 (S32)
            0x00000000, 0x19080014, 0x2c00400b, // acct; ldi r1, 20;  ret r1 (S32)
            0x00000004, 0x2d000000, // acct; unwind
        ],
    );
    assert_eq!(ff.switches.len(), 1);
    let sw = &ff.switches[0];
    assert_eq!(sw.cases.iter().map(|&(v, _)| v).collect::<Vec<_>>(), [1, 2]);
}

// ---------------------------------------------------------------------
// Size-model goldens: the offline cisc32/risc32 encoders are density
// models, so their fixture is exact section sizes for a fixed module.
// ---------------------------------------------------------------------

const SIZE_FIXTURE: &str = "
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
fn golden_size_models() {
    let m = lpat_asm::parse_module("t", SIZE_FIXTURE).unwrap();
    m.verify().unwrap();
    let cisc = compile_module(&m, &Cisc32);
    let risc = compile_module(&m, &Risc32);
    assert_eq!(
        (cisc.code_size, cisc.data_size, cisc.overhead, cisc.total),
        (41, 256, 120, 417),
        "cisc32 size model drifted"
    );
    assert_eq!(
        (risc.code_size, risc.data_size, risc.overhead, risc.total),
        (92, 256, 120, 468),
        "risc32 size model drifted"
    );
}
