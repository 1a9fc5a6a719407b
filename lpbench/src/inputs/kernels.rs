//! Eight parameterised miniC kernels, each with a Rust twin that computes
//! the expected `print_int` stream and exit code independently of the
//! compiler and engines under test.
//!
//! `scale` multiplies the work (repetitions); the data size is fixed per
//! kernel so a kernel's cache footprint does not change with `scale`.
//! `seed` feeds the kernels' in-program generators, so the same seed gives
//! the same source text and the same expected output.

use super::Oracle;

/// One kernel: its miniC source and its Rust twin.
pub struct Kernel {
    /// Stable name, used as the row label.
    pub name: &'static str,
    /// miniC source for `(scale, seed)`.
    pub source: fn(u32, u64) -> String,
    /// Expected result for `(scale, seed)`.
    pub expected: fn(u32, u64) -> Oracle,
    /// `scale` at which the optimized kernel executes six to ten million
    /// IR instructions (measured; see README).
    pub full_scale: u32,
}

/// The eight kernels, in row order.
pub fn all() -> [Kernel; 8] {
    [
        Kernel {
            name: "sieve",
            source: sieve_src,
            expected: sieve_twin,
            full_scale: 5,
        },
        Kernel {
            name: "lz",
            source: lz_src,
            expected: lz_twin,
            full_scale: 5,
        },
        Kernel {
            name: "listwalk",
            source: listwalk_src,
            expected: listwalk_twin,
            full_scale: 120,
        },
        Kernel {
            name: "stencil",
            source: stencil_src,
            expected: stencil_twin,
            full_scale: 80,
        },
        Kernel {
            name: "bitboard",
            source: bitboard_src,
            expected: bitboard_twin,
            full_scale: 7,
        },
        Kernel {
            name: "dispatch",
            source: dispatch_src,
            expected: dispatch_twin,
            full_scale: 150,
        },
        Kernel {
            name: "recurse",
            source: recurse_src,
            expected: recurse_twin,
            full_scale: 15,
        },
        Kernel {
            name: "unwind",
            source: unwind_src,
            expected: unwind_twin,
            full_scale: 30,
        },
    ]
}

const PRELUDE: &str = "extern void print_int(int v);\n";

/// The 31-bit start value every kernel derives from the run's seed.
fn seed31(seed: u64) -> i32 {
    (super::mix64(seed) & 0x3fff_ffff) as i32 | 1
}

/// The in-program generator: the classic 32-bit LCG, wrapping.
fn lcg(state: &mut i32) -> i32 {
    *state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
    (*state >> 16) & 32767
}

const LCG_STEP: &str = "state = state * 1103515245 + 12345;";

// -- sieve: byte array, int loops ------------------------------------------

fn sieve_n(seed: u64) -> i32 {
    // The seed only nudges the limit: the sieve has no other input.
    65_000 + (super::mix64(seed) % 97) as i32
}

fn sieve_src(scale: u32, seed: u64) -> String {
    let n = sieve_n(seed);
    format!(
        "{PRELUDE}
char flags[{len}];
int main() {{
    int total = 0;
    for (int r = 0; r < {scale}; r = r + 1) {{
        for (int i = 0; i <= {n}; i = i + 1) flags[i] = (char)1;
        int count = 0;
        for (int i = 2; i <= {n}; i = i + 1) {{
            if ((int)flags[i] != 0) {{
                count = count + 1;
                for (int k = i + i; k <= {n}; k = k + i) flags[k] = (char)0;
            }}
        }}
        total = total + count + r;
    }}
    print_int(total);
    return total % 251;
}}
",
        len = n + 1
    )
}

fn sieve_twin(scale: u32, seed: u64) -> Oracle {
    let n = sieve_n(seed) as usize;
    let mut total = 0i32;
    for r in 0..scale as i32 {
        let mut flags = vec![true; n + 1];
        let mut count = 0i32;
        for i in 2..=n {
            if flags[i] {
                count += 1;
                let mut k = i + i;
                while k <= n {
                    flags[k] = false;
                    k += i;
                }
            }
        }
        total = total.wrapping_add(count).wrapping_add(r);
    }
    Oracle::new(&[total], total % 251)
}

// -- lz: byte compares and hash chains, gzip-like ----------------------------

const LZ_N: usize = 24_000;

fn lz_src(scale: u32, seed: u64) -> String {
    let s = seed31(seed);
    format!(
        "{PRELUDE}
char buf[{LZ_N}];
int head[4096];
int prev[{LZ_N}];
int main() {{
    int state = {s};
    int tokens = 0;
    int check = 0;
    for (int r = 0; r < {scale}; r = r + 1) {{
        for (int i = 0; i < {LZ_N}; i = i + 1) {{
            {LCG_STEP}
            int v = (state >> 16) & 32767;
            if (i >= 64 && (v & 3) != 0) buf[i] = buf[i - 1 - ((v >> 2) & 63)];
            else buf[i] = (char)((v >> 8) & 127);
        }}
        for (int h = 0; h < 4096; h = h + 1) head[h] = -1;
        int i = 0;
        while (i + 3 <= {LZ_N}) {{
            int h = ((int)buf[i] * 1089 + (int)buf[i + 1] * 33 + (int)buf[i + 2]) & 4095;
            int best = 0;
            int bestpos = 0;
            int cand = head[h];
            int chain = 0;
            while (cand >= 0 && chain < 8 && i - cand <= 4096) {{
                int l = 0;
                while (l < 32 && i + l < {LZ_N} && buf[cand + l] == buf[i + l]) l = l + 1;
                if (l > best) {{ best = l; bestpos = cand; }}
                cand = prev[cand];
                chain = chain + 1;
            }}
            prev[i] = head[h];
            head[h] = i;
            if (best >= 3) {{
                check = check * 31 + best * 4096 + (i - bestpos);
                i = i + best;
            }} else {{
                check = check * 31 + (int)buf[i];
                i = i + 1;
            }}
            tokens = tokens + 1;
        }}
    }}
    print_int(tokens);
    print_int(check);
    return tokens % 199;
}}
"
    )
}

fn lz_twin(scale: u32, seed: u64) -> Oracle {
    let n = LZ_N;
    let mut state = seed31(seed);
    let (mut tokens, mut check) = (0i32, 0i32);
    let mut buf = vec![0i8; n];
    let mut prev = vec![0i32; n];
    for _ in 0..scale {
        for i in 0..n {
            let v = lcg(&mut state);
            buf[i] = if i >= 64 && (v & 3) != 0 {
                buf[i - 1 - ((v >> 2) & 63) as usize]
            } else {
                ((v >> 8) & 127) as i8
            };
        }
        let mut head = [-1i32; 4096];
        let mut i = 0usize;
        while i + 3 <= n {
            let b = |k: usize| i32::from(buf[k]);
            let h = ((b(i) * 1089 + b(i + 1) * 33 + b(i + 2)) & 4095) as usize;
            let (mut best, mut bestpos) = (0usize, 0usize);
            let mut cand = head[h];
            let mut chain = 0;
            while cand >= 0 && chain < 8 && i - cand as usize <= 4096 {
                let c = cand as usize;
                let mut l = 0;
                while l < 32 && i + l < n && buf[c + l] == buf[i + l] {
                    l += 1;
                }
                if l > best {
                    best = l;
                    bestpos = c;
                }
                cand = prev[c];
                chain += 1;
            }
            prev[i] = head[h];
            head[h] = i as i32;
            if best >= 3 {
                check = check
                    .wrapping_mul(31)
                    .wrapping_add((best * 4096 + (i - bestpos)) as i32);
                i += best;
            } else {
                check = check.wrapping_mul(31).wrapping_add(b(i));
                i += 1;
            }
            tokens += 1;
        }
    }
    Oracle::new(&[tokens, check], tokens % 199)
}

// -- listwalk: new/delete and pointer chasing --------------------------------

const LIST_N: usize = 3_000;

fn listwalk_src(scale: u32, seed: u64) -> String {
    let s = seed31(seed);
    format!(
        "{PRELUDE}
struct node {{ int val; struct node* next; }};
int main() {{
    int state = {s};
    struct node* head = null;
    for (int i = 0; i < {LIST_N}; i = i + 1) {{
        struct node* n = new struct node;
        {LCG_STEP}
        n->val = (state >> 16) & 1023;
        n->next = head;
        head = n;
    }}
    int total = 0;
    for (int r = 0; r < {scale}; r = r + 1) {{
        int sum = 0;
        struct node* p = head;
        while (p != null) {{
            sum = sum + p->val;
            p = p->next;
        }}
        total = total * 7 + sum;
        int removed = 0;
        int k = 0;
        p = head;
        while (p != null && p->next != null) {{
            if (k % 3 == 2) {{
                struct node* dead = p->next;
                p->next = dead->next;
                delete dead;
                removed = removed + 1;
            }}
            p = p->next;
            k = k + 1;
        }}
        for (int i = 0; i < removed; i = i + 1) {{
            struct node* n = new struct node;
            {LCG_STEP}
            n->val = (state >> 16) & 1023;
            n->next = head;
            head = n;
        }}
    }}
    int freed = 0;
    while (head != null) {{
        struct node* dead = head;
        head = head->next;
        delete dead;
        freed = freed + 1;
    }}
    print_int(total);
    print_int(freed);
    return (total & 127) + freed % 2;
}}
"
    )
}

fn listwalk_twin(scale: u32, seed: u64) -> Oracle {
    const NIL: usize = usize::MAX;
    let mut state = seed31(seed);
    // An arena of (val, next) stands in for the heap; freed cells are not
    // reused, which the program cannot observe.
    let mut nodes: Vec<(i32, usize)> = Vec::new();
    let mut head = NIL;
    let push = |nodes: &mut Vec<(i32, usize)>, head: &mut usize, state: &mut i32| {
        let val = lcg(state) & 1023;
        nodes.push((val, *head));
        *head = nodes.len() - 1;
    };
    for _ in 0..LIST_N {
        push(&mut nodes, &mut head, &mut state);
    }
    let mut total = 0i32;
    for _ in 0..scale {
        let mut sum = 0i32;
        let mut p = head;
        while p != NIL {
            sum = sum.wrapping_add(nodes[p].0);
            p = nodes[p].1;
        }
        total = total.wrapping_mul(7).wrapping_add(sum);
        let (mut removed, mut k) = (0, 0);
        p = head;
        while p != NIL && nodes[p].1 != NIL {
            if k % 3 == 2 {
                let dead = nodes[p].1;
                nodes[p].1 = nodes[dead].1;
                removed += 1;
            }
            p = nodes[p].1;
            k += 1;
        }
        for _ in 0..removed {
            push(&mut nodes, &mut head, &mut state);
        }
    }
    let mut freed = 0i32;
    while head != NIL {
        head = nodes[head].1;
        freed += 1;
    }
    Oracle::new(&[total, freed], (total & 127) + freed % 2)
}

// -- stencil: f64 three-point smoothing --------------------------------------

const STENCIL_N: usize = 4_000;

fn stencil_src(scale: u32, seed: u64) -> String {
    let s = seed31(seed);
    let last = STENCIL_N - 1;
    let mid = STENCIL_N / 2;
    format!(
        "{PRELUDE}
double a[{STENCIL_N}];
double b[{STENCIL_N}];
int main() {{
    int state = {s};
    for (int i = 0; i < {STENCIL_N}; i = i + 1) {{
        {LCG_STEP}
        a[i] = (double)((state >> 16) & 1023) * 0.125;
    }}
    for (int t = 0; t < {scale}; t = t + 1) {{
        for (int i = 1; i < {last}; i = i + 1) {{
            b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
        }}
        b[0] = a[0];
        b[{last}] = a[{last}];
        for (int i = 0; i < {STENCIL_N}; i = i + 1) a[i] = b[i];
    }}
    double sum = 0.0;
    for (int i = 0; i < {STENCIL_N}; i = i + 1) sum = sum + a[i];
    int r = (int)(sum * 16.0);
    print_int(r);
    print_int((int)(a[{mid}] * 1024.0));
    return r % 199;
}}
"
    )
}

fn stencil_twin(scale: u32, seed: u64) -> Oracle {
    let n = STENCIL_N;
    let mut state = seed31(seed);
    let mut a: Vec<f64> = (0..n)
        .map(|_| f64::from(lcg(&mut state) & 1023) * 0.125)
        .collect();
    let mut b = vec![0.0f64; n];
    for _ in 0..scale {
        for i in 1..n - 1 {
            b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
        }
        b[0] = a[0];
        b[n - 1] = a[n - 1];
        a.copy_from_slice(&b);
    }
    let mut sum = 0.0f64;
    for v in &a {
        sum += v;
    }
    let r = (sum * 16.0) as i32;
    Oracle::new(&[r, (a[n / 2] * 1024.0) as i32], r % 199)
}

// -- bitboard: 64-bit shifts, masks and popcount -----------------------------

const BITBOARD_ITERS: u32 = 2_500;
const NOT_A: i64 = -72_340_172_838_076_674; // 0xfefe…fe
const NOT_H: i64 = 9_187_201_950_435_737_471; // 0x7f7f…7f
const NOT_AB: i64 = -217_020_518_514_230_020; // 0xfcfc…fc
const NOT_GH: i64 = 4_557_430_888_798_830_399; // 0x3f3f…3f

fn bitboard_src(scale: u32, seed: u64) -> String {
    let s = i64::from(seed31(seed));
    let iters = BITBOARD_ITERS * scale;
    format!(
        "{PRELUDE}
static int popcount(ulong x) {{
    int c = 0;
    while (x != (ulong)0L) {{
        x = x & (x - (ulong)1L);
        c = c + 1;
    }}
    return c;
}}
static ulong knights(ulong b) {{
    ulong na = (ulong){NOT_A}L;
    ulong nh = (ulong){NOT_H}L;
    ulong nab = (ulong){NOT_AB}L;
    ulong ngh = (ulong){NOT_GH}L;
    return ((b << 17) & na) | ((b << 10) & nab) | ((b >> 6) & nab) | ((b >> 15) & na)
         | ((b << 15) & nh) | ((b << 6) & ngh) | ((b >> 10) & ngh) | ((b >> 17) & nh);
}}
static ulong kings(ulong b) {{
    ulong na = (ulong){NOT_A}L;
    ulong nh = (ulong){NOT_H}L;
    ulong row = b | ((b << 1) & na) | ((b >> 1) & nh);
    return (row | (row << 8) | (row >> 8)) ^ b;
}}
int main() {{
    long state = {s}L;
    int total = 0;
    ulong seen = (ulong)0L;
    for (int i = 0; i < {iters}; i = i + 1) {{
        state = state * 6364136223846793005L + 1442695040888963407L;
        ulong occ = (ulong)state & (ulong)(state >> 21);
        ulong free = occ ^ (ulong)-1L;
        total = total + popcount(knights(occ) & free) * 3 + popcount(kings(occ) & free);
        seen = seen ^ knights(occ);
    }}
    print_int(total);
    print_int((int)(seen >> 32));
    print_int((int)seen);
    return total & 127;
}}
"
    )
}

fn bitboard_twin(scale: u32, seed: u64) -> Oracle {
    let (na, nh, nab, ngh) = (NOT_A as u64, NOT_H as u64, NOT_AB as u64, NOT_GH as u64);
    let knights = |b: u64| {
        ((b << 17) & na)
            | ((b << 10) & nab)
            | ((b >> 6) & nab)
            | ((b >> 15) & na)
            | ((b << 15) & nh)
            | ((b << 6) & ngh)
            | ((b >> 10) & ngh)
            | ((b >> 17) & nh)
    };
    let kings = |b: u64| {
        let row = b | ((b << 1) & na) | ((b >> 1) & nh);
        (row | (row << 8) | (row >> 8)) ^ b
    };
    let mut state = i64::from(seed31(seed));
    let mut total = 0i32;
    let mut seen = 0u64;
    for _ in 0..BITBOARD_ITERS * scale {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let occ = state as u64 & (state >> 21) as u64;
        let free = !occ;
        total = total
            .wrapping_add((knights(occ) & free).count_ones() as i32 * 3)
            .wrapping_add((kings(occ) & free).count_ones() as i32);
        seen ^= knights(occ);
    }
    Oracle::new(&[total, (seen >> 32) as i32, seen as i32], total & 127)
}

// -- dispatch: function-pointer interpreter with one dominant handler --------

const DISPATCH_N: usize = 4_096;

fn dispatch_src(scale: u32, seed: u64) -> String {
    let s = seed31(seed);
    format!(
        "{PRELUDE}
static int op_add(int a, int b) {{ return a + b; }}
static int op_xor(int a, int b) {{ return a ^ b; }}
static int op_mul(int a, int b) {{ return a * 3 + b; }}
static int op_sub(int a, int b) {{ return a - b; }}
static int op_shl(int a, int b) {{ return (a << 1) ^ b; }}
static int op_and(int a, int b) {{ return a & (b | 65280); }}
static int op_mix(int a, int b) {{ return (a >> 3) + b * 5; }}
static int op_neg(int a, int b) {{ return b - a; }}
fn<int(int, int)> table[8];
char code[{DISPATCH_N}];
int arg[{DISPATCH_N}];
int main() {{
    table[0] = op_add; table[1] = op_xor; table[2] = op_mul; table[3] = op_sub;
    table[4] = op_shl; table[5] = op_and; table[6] = op_mix; table[7] = op_neg;
    int state = {s};
    for (int i = 0; i < {DISPATCH_N}; i = i + 1) {{
        {LCG_STEP}
        int v = (state >> 16) & 32767;
        if ((v & 15) < 13) code[i] = (char)0;
        else code[i] = (char)(1 + (v >> 4) % 7);
        arg[i] = v >> 2;
    }}
    int acc = 1;
    for (int r = 0; r < {scale}; r = r + 1) {{
        for (int pc = 0; pc < {DISPATCH_N}; pc = pc + 1) {{
            acc = table[(int)code[pc]](acc, arg[pc]);
        }}
    }}
    print_int(acc);
    return acc & 127;
}}
"
    )
}

fn dispatch_twin(scale: u32, seed: u64) -> Oracle {
    let mut state = seed31(seed);
    let mut code = [0u8; DISPATCH_N];
    let mut arg = [0i32; DISPATCH_N];
    for i in 0..DISPATCH_N {
        let v = lcg(&mut state);
        code[i] = if (v & 15) < 13 {
            0
        } else {
            (1 + (v >> 4) % 7) as u8
        };
        arg[i] = v >> 2;
    }
    let mut acc = 1i32;
    for _ in 0..scale {
        for pc in 0..DISPATCH_N {
            let (a, b) = (acc, arg[pc]);
            acc = match code[pc] {
                0 => a.wrapping_add(b),
                1 => a ^ b,
                2 => a.wrapping_mul(3).wrapping_add(b),
                3 => a.wrapping_sub(b),
                4 => (a << 1) ^ b,
                5 => a & (b | 65280),
                6 => (a >> 3).wrapping_add(b.wrapping_mul(5)),
                _ => b.wrapping_sub(a),
            };
        }
    }
    Oracle::new(&[acc], acc & 127)
}

// -- recurse: deep call/return ------------------------------------------------

const RECURSE_DEPTH: i32 = 3_000;

fn recurse_src(scale: u32, seed: u64) -> String {
    let s = seed31(seed) & 1023;
    format!(
        "{PRELUDE}
static int fib(int n) {{
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}}
static int depth(int n, int acc) {{
    if (n == 0) return acc;
    return depth(n - 1, acc * 3 + n) + 1;
}}
static int tak(int x, int y, int z) {{
    if (y >= x) return z;
    return tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y));
}}
int main() {{
    int total = 0;
    for (int r = 0; r < {scale}; r = r + 1) {{
        total = total * 5 + fib(17) + depth({RECURSE_DEPTH}, {s} + r) + tak(12, 6, r % 2);
    }}
    print_int(total);
    return total & 127;
}}
"
    )
}

fn recurse_twin(scale: u32, seed: u64) -> Oracle {
    fn fib(n: i32) -> i32 {
        if n < 2 {
            n
        } else {
            fib(n - 1).wrapping_add(fib(n - 2))
        }
    }
    // `depth` unrolled: the accumulator runs down, one is added per level
    // on the way back up.
    fn depth(n: i32, mut acc: i32) -> i32 {
        for k in (1..=n).rev() {
            acc = acc.wrapping_mul(3).wrapping_add(k);
        }
        acc.wrapping_add(n)
    }
    fn tak(x: i32, y: i32, z: i32) -> i32 {
        if y >= x {
            z
        } else {
            tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y))
        }
    }
    let s = seed31(seed) & 1023;
    let mut total = 0i32;
    for r in 0..scale as i32 {
        total = total
            .wrapping_mul(5)
            .wrapping_add(fib(17))
            .wrapping_add(depth(RECURSE_DEPTH, s + r))
            .wrapping_add(tak(12, 6, r % 2));
    }
    Oracle::new(&[total], total & 127)
}

// -- unwind: try/throw across frames in a loop --------------------------------

const UNWIND_ITERS: i32 = 20_000;

fn unwind_modulus(seed: u64) -> i32 {
    5 + (super::mix64(seed) % 5) as i32
}

fn unwind_src(scale: u32, seed: u64) -> String {
    let m = unwind_modulus(seed);
    let iters = UNWIND_ITERS * scale as i32;
    format!(
        "{PRELUDE}
static int risky(int i, int m) {{
    if (i % m == 0) throw;
    return i * 3;
}}
static int middle(int i, int m) {{
    int v = risky(i, m);
    return v + 1;
}}
static int outer(int i, int m) {{
    int r = 0;
    try {{ r = middle(i, m); }} catch {{ r = -1; }}
    return r;
}}
int main() {{
    int caught = 0;
    int sum = 0;
    for (int i = 1; i <= {iters}; i = i + 1) {{
        int v = outer(i, {m});
        if (v < 0) caught = caught + 1;
        else sum = sum * 3 + v;
    }}
    print_int(caught);
    print_int(sum);
    return caught & 127;
}}
"
    )
}

fn unwind_twin(scale: u32, seed: u64) -> Oracle {
    let m = unwind_modulus(seed);
    let (mut caught, mut sum) = (0i32, 0i32);
    for i in 1..=UNWIND_ITERS * scale as i32 {
        if i % m == 0 {
            caught += 1;
        } else {
            sum = sum.wrapping_mul(3).wrapping_add(i * 3 + 1);
        }
    }
    Oracle::new(&[caught, sum], caught & 127)
}

// -- profile-sensitive programs for the lifelong cycle ------------------------
//
// Their hot behaviour is only visible at run time: the argument that is
// almost always the same comes out of memory, and which branch is hot
// depends on the data.

/// A hot callee whose second argument is almost always the same value,
/// loaded from a table, so only a profile can tell: `(source, expected)`.
pub fn const_arg(iters: u32, seed: u64) -> (String, Oracle) {
    let rare = (super::mix64(seed) % 64) as i32;
    let src = format!(
        "{PRELUDE}
int mode[64];
static int apply(int x, int k) {{
    int r = x;
    for (int j = 0; j < k; j = j + 1) r = r * 3 + j;
    return r ^ (x >> 2);
}}
int main() {{
    for (int i = 0; i < 64; i = i + 1) mode[i] = 4;
    mode[{rare}] = 6;
    int acc = 7;
    for (int i = 0; i < {iters}; i = i + 1) {{
        acc = (acc + apply(i, mode[i & 63])) % 1000003;
    }}
    print_int(acc);
    return acc & 127;
}}
"
    );
    let mut acc = 7i32;
    for i in 0..iters as i32 {
        let k = if i & 63 == rare { 6 } else { 4 };
        let mut r = i;
        for j in 0..k {
            r = r.wrapping_mul(3).wrapping_add(j);
        }
        acc = acc.wrapping_add(r ^ (i >> 2)) % 1_000_003;
    }
    (src, Oracle::new(&[acc], acc & 127))
}

/// The hot/cold-branch program of `examples/profile_reopt.rs`, with the
/// cold divisor drawn from the seed: `(source, expected)`.
pub fn hot_cold(iters: u32, seed: u64) -> (String, Oracle) {
    let cold = 89 + (super::mix64(seed) % 16) as i32;
    let src = format!(
        "{PRELUDE}
static int classify(int v) {{
    if (v % {cold} == 0) return 3;
    if (v % 7 == 0) return 2;
    return 1;
}}
static int score(int kind, int v) {{
    if (kind == 3) return v * 31;
    if (kind == 2) return v * 5;
    return v + 1;
}}
int main() {{
    int total = 0;
    for (int i = 0; i < {iters}; i = i + 1) {{
        int kind = classify(i);
        total = total + score(kind, i);
        total = total % 1000003;
    }}
    print_int(total);
    return total % 256;
}}
"
    );
    let mut total = 0i32;
    for i in 0..iters as i32 {
        let s = if i % cold == 0 {
            i.wrapping_mul(31)
        } else if i % 7 == 0 {
            i.wrapping_mul(5)
        } else {
            i + 1
        };
        total = total.wrapping_add(s) % 1_000_003;
    }
    (src, Oracle::new(&[total], total % 256))
}
