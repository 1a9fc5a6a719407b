//! `progen` — a seeded generator of multi-unit miniC *applications*.
//!
//! An application is `units × funcs_per_unit` functions `int f(int, int)`
//! forming a call DAG (a function only calls functions with a larger
//! index, so nothing recurses) that is reachable from `main`, so dead
//! global elimination cannot delete it — unlike the worker functions
//! `lpat_workloads::suite(scale)` appends, which nothing calls. About a
//! fifth of the functions and globals are genuinely dead; calls often pass
//! constants; eight leaf functions sit in a function-pointer table reached
//! through `dispatch`; bodies read and write global scalars, int and byte
//! arrays, struct instances (with a 64-bit field) and short-lived heap
//! objects inside bounded loops.
//!
//! The application is built as a tiny AST that is both pretty-printed to
//! miniC ([`App::sources`]) and evaluated directly in Rust with wrapping
//! 32-bit semantics ([`App::oracle`]) — the expected `print_int` stream
//! comes from the evaluator, never from the compiler under test.

use super::{Oracle, Rng};

/// Elements in every generated int/byte array (a power of two: indices
/// are masked, never checked).
const ARRAY_LEN: usize = 64;
/// Entries in the function-pointer table.
const TABLE_LEN: usize = 8;
/// Upper bound on the evaluator steps one function may cost, callees
/// included; keeps the call DAG from multiplying out.
const FUNC_BUDGET: u64 = 12_000;

/// The structure seed the workloads generate their applications from.
pub const STRUCTURE: u64 = 2004;

/// Shape of one application.
#[derive(Copy, Clone, Debug)]
pub struct Shape {
    /// Translation units.
    pub units: usize,
    /// Functions per unit (besides `main` and `dispatch` in unit 0).
    pub funcs_per_unit: usize,
}

#[derive(Copy, Clone, Debug)]
enum BinOp {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
}

#[derive(Copy, Clone, Debug)]
enum CmpOp {
    Lt,
    Le,
    Eq,
    Ne,
}

#[derive(Clone, Debug)]
enum Expr {
    Const(i32),
    Local(usize),
    Global(usize),
    /// `arr[(idx) & 63]`
    Elem(usize, Box<Expr>),
    /// `(int)bytes[(idx) & 63]`
    Byte(usize, Box<Expr>),
    /// `rec.a` (field 0) or `rec.b` (field 1)
    Field(usize, usize),
    /// `(int)(rec.c >> sh)`
    FieldWide(usize, u8),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// `e / c`, `c > 0`
    DivC(Box<Expr>, i32),
    /// `e % c`, `c > 0`
    RemC(Box<Expr>, i32),
    ShlC(Box<Expr>, u8),
    ShrC(Box<Expr>, u8),
    /// `(int)(((long)a * (long)b) >> 16)`
    WideMul(Box<Expr>, Box<Expr>),
    /// `(l op r ? a : b)`
    Select(CmpOp, Box<Expr>, Box<Expr>, Box<Expr>, Box<Expr>),
    Call(usize, Box<Expr>, Box<Expr>),
    /// `dispatch(idx, a, b)` — calls `table[idx & 7](a, b)`
    CallTable(Box<Expr>, Box<Expr>, Box<Expr>),
}

#[derive(Clone, Debug)]
enum Stmt {
    Assign(usize, Expr),
    SetGlobal(usize, Expr),
    SetElem(usize, Expr, Expr),
    SetByte(usize, Expr, Expr),
    SetField(usize, usize, Expr),
    /// `rec.c = (long)a * (long)b;`
    SetFieldWide(usize, Expr, Expr),
    If(CmpOp, Expr, Expr, Vec<Stmt>, Vec<Stmt>),
    /// `for (v = 0; v < trip; v = v + 1) body`; the body never assigns `v`.
    For(usize, i32, Vec<Stmt>),
    /// `p = new struct rec; p->a = x; p->b = y; dst = p->a * 3 + p->b; delete p;`
    HeapRec(usize, Expr, Expr),
    /// `q = new int[n]; q[i] = x + i (i < n); dst = q[n - 1] ^ q[0]; delete q;`
    HeapArr(usize, i32, Expr),
}

struct Func {
    unit: usize,
    live: bool,
    /// Referenced from another unit (or from the table): cannot be `static`.
    shared: bool,
    locals: usize,
    body: Vec<Stmt>,
    ret: Expr,
}

/// Per-unit pools of data the unit's functions use. Unit 0's are shared:
/// every unit may also touch them through `extern` declarations.
struct Data {
    /// (unit, initial value, live)
    globals: Vec<(usize, i32, bool)>,
    arrays: Vec<usize>,
    bytes: Vec<usize>,
    recs: Vec<usize>,
}

/// One generated application.
pub struct App {
    /// Name, used for module names and row labels.
    pub name: String,
    shape: Shape,
    funcs: Vec<Func>,
    data: Data,
    table: [usize; TABLE_LEN],
    /// `main`: (callee, a, b) per root call, in order.
    roots: Vec<(usize, i32, i32)>,
}

struct Gen<'a> {
    /// Draws the program's structure.
    rng: &'a mut Rng,
    /// Draws the values the structure is filled with.
    vals: &'a mut Rng,
    shape: Shape,
    data: &'a Data,
    costs: &'a [u64],
    live: &'a [bool],
    is_table: &'a [bool],
    /// Function being generated.
    me: usize,
    unit: usize,
    me_live: bool,
    /// Locals assigned so far (params are 0 and 1).
    locals: usize,
    /// Loop variables currently in scope (read-only).
    loop_vars: Vec<usize>,
    /// Product of enclosing trip counts.
    mult: u64,
    spent: u64,
    callees: Vec<usize>,
}

impl Gen<'_> {
    /// An object from one of the data pools: this unit's own, or a third
    /// of the time one of unit 0's, which every unit shares.
    fn pick_of_unit(&mut self, pool: fn(&Data) -> &Vec<usize>) -> Option<usize> {
        let pool = pool(self.data);
        let want = if self.rng.chance(33) { 0 } else { self.unit };
        let fits: Vec<usize> = (0..pool.len()).filter(|&k| pool[k] == want).collect();
        (!fits.is_empty()).then(|| fits[self.rng.below(fits.len())])
    }

    fn pick_global(&mut self) -> Option<usize> {
        let want = if self.rng.chance(33) { 0 } else { self.unit };
        let me_live = self.me_live;
        // Live code never touches a dead global, so the global stays dead.
        let fits: Vec<usize> = (0..self.data.globals.len())
            .filter(|&k| {
                let (u, _, live) = self.data.globals[k];
                u == want && (live || !me_live)
            })
            .collect();
        (!fits.is_empty()).then(|| fits[self.rng.below(fits.len())])
    }

    fn leaf(&mut self) -> Expr {
        self.spent += self.mult;
        match self.rng.below(10) {
            0 | 1 => Expr::Const(self.small_const()),
            2..=6 => Expr::Local(self.any_local()),
            7 => match self.pick_global() {
                Some(g) => Expr::Global(g),
                None => Expr::Local(self.any_local()),
            },
            8 => match self.pick_of_unit(|d| &d.recs) {
                Some(r) => {
                    if self.rng.chance(25) {
                        Expr::FieldWide(r, self.rng.range(1, 20) as u8)
                    } else {
                        Expr::Field(r, self.rng.below(2))
                    }
                }
                None => Expr::Const(self.small_const()),
            },
            _ => Expr::Const(
                self.vals.range(10_000, 99_999) * if self.vals.chance(50) { -1 } else { 1 },
            ),
        }
    }

    /// Never 0: a value that folds code away would let the seed change
    /// how much code there is.
    fn small_const(&mut self) -> i32 {
        match self.vals.range(-9, 40) {
            0 => 41,
            v => v,
        }
    }

    /// The left side of a comparison: never a constant, so that no branch
    /// folds for some seeds and not for others.
    fn variable(&mut self) -> Expr {
        self.spent += self.mult;
        Expr::Local(self.any_local())
    }

    fn any_local(&mut self) -> usize {
        let n = self.locals + self.loop_vars.len();
        let k = self.rng.below(n);
        if k < self.locals {
            k
        } else {
            self.loop_vars[k - self.locals]
        }
    }

    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 {
            return self.leaf();
        }
        self.spent += self.mult;
        let d = depth - 1;
        match self.rng.below(20) {
            0..=5 => {
                let op = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::And,
                    BinOp::Or,
                    BinOp::Xor,
                    BinOp::Add,
                ][self.rng.below(7)];
                Expr::Bin(op, Box::new(self.expr(d)), Box::new(self.expr(d)))
            }
            7 => Expr::DivC(Box::new(self.expr(d)), self.vals.range(3, 63)),
            8 => Expr::RemC(Box::new(self.expr(d)), self.vals.range(3, 63)),
            9 => Expr::ShlC(Box::new(self.expr(d)), self.rng.range(1, 12) as u8),
            10 => Expr::ShrC(Box::new(self.expr(d)), self.rng.range(1, 12) as u8),
            11 => Expr::WideMul(Box::new(self.expr(d)), Box::new(self.expr(d))),
            12 => match self.pick_of_unit(|d| &d.arrays) {
                Some(a) => Expr::Elem(a, Box::new(self.expr(d))),
                None => self.leaf(),
            },
            13 => match self.pick_of_unit(|d| &d.bytes) {
                Some(a) => Expr::Byte(a, Box::new(self.expr(d))),
                None => self.leaf(),
            },
            14 => Expr::Select(
                self.cmp(),
                Box::new(self.variable()),
                Box::new(self.expr(0)),
                Box::new(self.expr(d)),
                Box::new(self.expr(d)),
            ),
            6 | 15..=17 => self.call(d),
            _ => self.leaf(),
        }
    }

    fn cmp(&mut self) -> CmpOp {
        [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne][self.rng.below(4)]
    }

    /// A call argument: a constant four times in ten (IPCP fodder).
    fn arg(&mut self, depth: u32) -> Expr {
        if self.rng.chance(40) {
            self.spent += self.mult;
            Expr::Const(self.small_const())
        } else {
            self.expr(depth.min(1))
        }
    }

    fn call(&mut self, depth: u32) -> Expr {
        if self.is_table[self.me] {
            // Table functions are leaves: anything may reach them through
            // `dispatch`, so they call nothing.
            return self.leaf();
        }
        let total = self.shape.units * self.shape.funcs_per_unit;
        if self.rng.chance(15) {
            let idx = if self.rng.chance(50) {
                Expr::Const(self.vals.below(TABLE_LEN) as i32)
            } else {
                self.expr(0)
            };
            let table_cost = self.costs[total - TABLE_LEN..]
                .iter()
                .max()
                .copied()
                .unwrap_or(0);
            self.spent += self.mult * table_cost;
            return Expr::CallTable(
                Box::new(idx),
                Box::new(self.arg(depth)),
                Box::new(self.arg(depth)),
            );
        }
        // A later function, six times in ten from this unit; live code
        // calls only live code; the callee must fit the remaining budget.
        let same_unit = self.rng.chance(60);
        let room = FUNC_BUDGET.saturating_sub(self.spent);
        let fits: Vec<usize> = (self.me + 1..total.min(self.me + 1 + 32 * self.shape.units))
            .filter(|&j| {
                (!same_unit || j % self.shape.units == self.unit)
                    && (self.live[j] || !self.me_live)
                    && self.costs[j].saturating_mul(self.mult) <= room
            })
            .collect();
        if fits.is_empty() {
            return self.leaf();
        }
        let j = fits[self.rng.below(fits.len())];
        self.spent += self.costs[j] * self.mult;
        self.callees.push(j);
        Expr::Call(j, Box::new(self.arg(depth)), Box::new(self.arg(depth)))
    }

    /// A fresh local or an existing non-parameter one.
    fn dst(&mut self) -> usize {
        if self.locals > 2 && self.rng.chance(50) {
            2 + self.rng.below(self.locals - 2)
        } else {
            self.locals += 1;
            self.locals - 1
        }
    }

    fn stmt(&mut self, depth: u32) -> Stmt {
        self.spent += self.mult;
        match self.rng.below(16) {
            0..=4 => self.assign(2),
            5 => match self.pick_global() {
                Some(g) => Stmt::SetGlobal(g, self.expr(2)),
                None => self.assign(1),
            },
            6 | 7 => match self.pick_of_unit(|d| &d.arrays) {
                Some(a) => Stmt::SetElem(a, self.expr(1), self.expr(2)),
                None => self.assign(1),
            },
            8 => match self.pick_of_unit(|d| &d.bytes) {
                Some(a) => Stmt::SetByte(a, self.expr(1), self.expr(1)),
                None => self.assign(1),
            },
            9 => match self.pick_of_unit(|d| &d.recs) {
                Some(r) => {
                    if self.rng.chance(30) {
                        Stmt::SetFieldWide(r, self.expr(1), self.expr(1))
                    } else {
                        Stmt::SetField(r, self.rng.below(2), self.expr(2))
                    }
                }
                None => self.assign(1),
            },
            10 | 11 if depth > 0 => {
                let (op, l, r) = (self.cmp(), self.variable(), self.expr(0));
                let then = self.block(depth - 1, 2);
                let els = if self.rng.chance(50) {
                    self.block(depth - 1, 1)
                } else {
                    Vec::new()
                };
                Stmt::If(op, l, r, then, els)
            }
            12 | 13 if depth > 0 && self.mult * 8 <= 32 => {
                let trip = self.rng.range(2, 8);
                // Loop variables live in their own index space above every
                // ordinary local (`1000 + nesting depth`), so they are
                // readable in the body but never an assignment's target.
                let var = 1000 + self.loop_vars.len();
                self.loop_vars.push(var);
                self.mult *= trip as u64;
                let body = self.block(depth - 1, 2);
                self.mult /= trip as u64;
                self.loop_vars.pop();
                Stmt::For(var, trip, body)
            }
            14 => {
                let (x, y) = (self.expr(1), self.expr(1));
                self.spent += self.mult * 6;
                Stmt::HeapRec(self.dst(), x, y)
            }
            15 => {
                let n = self.rng.range(2, 6);
                let x = self.expr(1);
                self.spent += self.mult * 4 * n as u64;
                Stmt::HeapArr(self.dst(), n, x)
            }
            _ => self.assign(2),
        }
    }

    /// `v = e;` — the right-hand side is drawn before its destination, so
    /// it never reads a local this statement introduces.
    fn assign(&mut self, depth: u32) -> Stmt {
        let e = self.expr(depth);
        Stmt::Assign(self.dst(), e)
    }

    fn block(&mut self, depth: u32, n: usize) -> Vec<Stmt> {
        (0..n).map(|_| self.stmt(depth)).collect()
    }
}

impl App {
    /// Generate application `index`. `structure` draws everything that
    /// decides how much work the program is for the compiler — call graph,
    /// statement kinds, loop bounds, which code is dead; `seed` draws what
    /// it computes — constants, initial values, arguments. The workloads
    /// keep `structure` fixed ([`STRUCTURE`]), as a kernel's text is fixed,
    /// so that code size and compile effort do not swing with the run's
    /// seed, while every seed still gives other sources and other output.
    pub fn generate(structure: u64, seed: u64, index: usize, shape: Shape) -> App {
        let mut rng = Rng::new(structure, 0x70_72_6f_67 + index as u64);
        let mut vals = Rng::new(seed, 0x76_61_6c_73 + index as u64);
        let total = shape.units * shape.funcs_per_unit;
        // Data pools: per unit a few of each kind; a fifth of the global
        // scalars are dead.
        let mut data = Data {
            globals: Vec::new(),
            arrays: Vec::new(),
            bytes: Vec::new(),
            recs: Vec::new(),
        };
        for u in 0..shape.units {
            for k in 0..10 {
                data.globals.push((u, vals.range(100, 999), k % 5 != 4));
            }
            data.arrays.extend([u; 3]);
            data.bytes.extend([u; 2]);
            data.recs.extend([u; 2]);
        }
        // A fifth of the functions are dead. The last functions of the
        // index space are the table's leaves and are live.
        let mut live: Vec<bool> = (0..total).map(|_| !rng.chance(20)).collect();
        let mut is_table = vec![false; total];
        let mut table = [0usize; TABLE_LEN];
        for (k, slot) in table.iter_mut().enumerate() {
            *slot = total - 1 - k;
            is_table[*slot] = true;
            live[*slot] = true;
        }
        // Bodies, last function first, so every callee's cost is known.
        let mut costs = vec![0u64; total];
        let mut funcs: Vec<Option<Func>> = (0..total).map(|_| None).collect();
        let mut called_by_live = vec![false; total];
        let mut shared = is_table.clone();
        for me in (0..total).rev() {
            let unit = me % shape.units;
            let mut g = Gen {
                rng: &mut rng,
                vals: &mut vals,
                shape,
                data: &data,
                costs: &costs,
                live: &live,
                is_table: &is_table,
                me,
                unit,
                me_live: live[me],
                locals: 2,
                loop_vars: Vec::new(),
                mult: 1,
                spent: 0,
                callees: Vec::new(),
            };
            let n = 5 + g.rng.below(5);
            let body = g.block(2, n);
            let ret = g.expr(2);
            let (locals, cost, callees) = (g.locals, g.spent + 2, g.callees);
            for j in callees {
                called_by_live[j] |= live[me];
                shared[j] |= j % shape.units != unit;
            }
            costs[me] = cost;
            funcs[me] = Some(Func {
                unit,
                live: live[me],
                shared: false,
                locals,
                body,
                ret,
            });
        }
        let mut funcs: Vec<Func> = funcs.into_iter().map(|f| f.expect("generated")).collect();
        // `main` (unit 0) calls every live function no live function calls,
        // which makes the whole live DAG reachable.
        let mut roots = Vec::new();
        for j in 0..total {
            if live[j] && !called_by_live[j] && !is_table[j] {
                roots.push((j, vals.range(10, 60), vals.range(10, 30)));
                shared[j] |= funcs[j].unit != 0;
            }
        }
        for (f, s) in funcs.iter_mut().zip(shared) {
            f.shared = s;
        }
        App {
            name: format!("app{index}"),
            shape,
            funcs,
            data,
            table,
            roots,
        }
    }

    /// Functions in the application, dead ones included (`main` and
    /// `dispatch` not counted).
    pub fn num_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// Share of the functions nothing reachable from `main` calls.
    pub fn dead_share(&self) -> f64 {
        self.funcs.iter().filter(|f| !f.live).count() as f64 / self.funcs.len() as f64
    }

    // -- pretty-printer -------------------------------------------------

    fn fname(&self, f: usize) -> String {
        format!("u{}_f{}", self.funcs[f].unit, f)
    }

    fn local(v: usize) -> String {
        match v {
            0 => "a".into(),
            1 => "b".into(),
            v if v >= 1000 => format!("i{}", v - 1000),
            v => format!("v{v}"),
        }
    }

    fn gname(&self, g: usize) -> String {
        format!("u{}_g{g}", self.data.globals[g].0)
    }

    fn expr_src(&self, e: &Expr) -> String {
        let s = |e: &Expr| self.expr_src(e);
        match e {
            Expr::Const(c) if *c < 0 => format!("({c})"),
            Expr::Const(c) => c.to_string(),
            Expr::Local(v) => Self::local(*v),
            Expr::Global(g) => self.gname(*g),
            Expr::Elem(a, i) => format!("u{}_a{a}[({}) & 63]", self.data.arrays[*a], s(i)),
            Expr::Byte(a, i) => format!("(int)u{}_b{a}[({}) & 63]", self.data.bytes[*a], s(i)),
            Expr::Field(r, f) => {
                format!(
                    "u{}_s{r}.{}",
                    self.data.recs[*r],
                    if *f == 0 { "a" } else { "b" }
                )
            }
            Expr::FieldWide(r, sh) => format!("(int)(u{}_s{r}.c >> {sh})", self.data.recs[*r]),
            Expr::Bin(op, l, r) => {
                let o = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::And => "&",
                    BinOp::Or => "|",
                    BinOp::Xor => "^",
                };
                format!("({} {o} {})", s(l), s(r))
            }
            Expr::DivC(l, c) => format!("({} / {c})", s(l)),
            Expr::RemC(l, c) => format!("({} % {c})", s(l)),
            Expr::ShlC(l, k) => format!("({} << {k})", s(l)),
            Expr::ShrC(l, k) => format!("({} >> {k})", s(l)),
            Expr::WideMul(l, r) => format!("(int)(((long)({}) * (long)({})) >> 16)", s(l), s(r)),
            Expr::Select(op, l, r, a, b) => {
                format!("({} {} {} ? {} : {})", s(l), cmp_src(*op), s(r), s(a), s(b))
            }
            Expr::Call(f, a, b) => format!("{}({}, {})", self.fname(*f), s(a), s(b)),
            Expr::CallTable(i, a, b) => format!("dispatch({}, {}, {})", s(i), s(a), s(b)),
        }
    }

    fn stmt_src(&self, st: &Stmt, ind: usize, out: &mut String) {
        let pad = "    ".repeat(ind);
        let s = |e: &Expr| self.expr_src(e);
        match st {
            Stmt::Assign(v, e) => out.push_str(&format!("{pad}{} = {};\n", Self::local(*v), s(e))),
            Stmt::SetGlobal(g, e) => out.push_str(&format!("{pad}{} = {};\n", self.gname(*g), s(e))),
            Stmt::SetElem(a, i, e) => out.push_str(&format!(
                "{pad}u{}_a{a}[({}) & 63] = {};\n",
                self.data.arrays[*a],
                s(i),
                s(e)
            )),
            Stmt::SetByte(a, i, e) => out.push_str(&format!(
                "{pad}u{}_b{a}[({}) & 63] = (char)({});\n",
                self.data.bytes[*a],
                s(i),
                s(e)
            )),
            Stmt::SetField(r, f, e) => out.push_str(&format!(
                "{pad}u{}_s{r}.{} = {};\n",
                self.data.recs[*r],
                if *f == 0 { "a" } else { "b" },
                s(e)
            )),
            Stmt::SetFieldWide(r, a, b) => out.push_str(&format!(
                "{pad}u{}_s{r}.c = (long)({}) * (long)({});\n",
                self.data.recs[*r],
                s(a),
                s(b)
            )),
            Stmt::If(op, l, r, then, els) => {
                out.push_str(&format!("{pad}if ({} {} {}) {{\n", s(l), cmp_src(*op), s(r)));
                for t in then {
                    self.stmt_src(t, ind + 1, out);
                }
                if !els.is_empty() {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    for t in els {
                        self.stmt_src(t, ind + 1, out);
                    }
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::For(v, trip, body) => {
                let i = Self::local(*v);
                out.push_str(&format!(
                    "{pad}for (int {i} = 0; {i} < {trip}; {i} = {i} + 1) {{\n"
                ));
                for t in body {
                    self.stmt_src(t, ind + 1, out);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::HeapRec(dst, x, y) => out.push_str(&format!(
                "{pad}{{\n{pad}    struct rec* p = new struct rec;\n{pad}    p->a = {};\n\
                 {pad}    p->b = {};\n{pad}    {} = p->a * 3 + p->b;\n{pad}    delete p;\n{pad}}}\n",
                s(x),
                s(y),
                Self::local(*dst)
            )),
            Stmt::HeapArr(dst, n, x) => out.push_str(&format!(
                "{pad}{{\n{pad}    int* q = new int[{n}];\n{pad}    int x = {};\n\
                 {pad}    for (int k = 0; k < {n}; k = k + 1) q[k] = x + k;\n\
                 {pad}    {} = q[{}] ^ q[0];\n{pad}    delete q;\n{pad}}}\n",
                s(x),
                Self::local(*dst),
                n - 1
            )),
        }
    }

    /// The application's translation units as `(module name, miniC source)`.
    pub fn sources(&self) -> Vec<(String, String)> {
        (0..self.shape.units)
            .map(|u| (format!("{}.u{u}", self.name), self.unit_src(u)))
            .collect()
    }

    fn unit_src(&self, u: usize) -> String {
        let mut out = String::new();
        out.push_str("extern void print_int(int v);\n");
        out.push_str("struct rec { int a; int b; long c; };\n");
        // Data: definitions for this unit, `extern` for unit 0's.
        let vis = |owner: usize| owner == u || owner == 0;
        let ext = |owner: usize| if owner == u { "" } else { "extern " };
        for (g, &(owner, init, _)) in self.data.globals.iter().enumerate() {
            if owner == u {
                out.push_str(&format!("int u{owner}_g{g} = {init};\n"));
            } else if owner == 0 {
                out.push_str(&format!("extern int u0_g{g};\n"));
            }
        }
        for (a, &owner) in self.data.arrays.iter().enumerate().filter(|(_, &o)| vis(o)) {
            out.push_str(&format!("{}int u{owner}_a{a}[{ARRAY_LEN}];\n", ext(owner)));
        }
        for (a, &owner) in self.data.bytes.iter().enumerate().filter(|(_, &o)| vis(o)) {
            out.push_str(&format!("{}char u{owner}_b{a}[{ARRAY_LEN}];\n", ext(owner)));
        }
        for (r, &owner) in self.data.recs.iter().enumerate().filter(|(_, &o)| vis(o)) {
            out.push_str(&format!("{}struct rec u{owner}_s{r};\n", ext(owner)));
        }
        // Declarations of the other units' functions this unit references
        // (its own need none: miniC resolves forward references).
        let mut foreign = vec![false; self.funcs.len()];
        let mut uses_dispatch = u == 0;
        for f in self.funcs.iter().filter(|f| f.unit == u) {
            for st in &f.body {
                stmt_calls(st, &mut foreign, &mut uses_dispatch);
            }
            expr_calls(&f.ret, &mut foreign, &mut uses_dispatch);
        }
        if u == 0 {
            for &t in &self.table {
                foreign[t] = true;
            }
            for r in &self.roots {
                foreign[r.0] = true;
            }
        }
        for (j, f) in self.funcs.iter().enumerate() {
            if f.unit != u && foreign[j] {
                out.push_str(&format!("extern int {}(int a, int b);\n", self.fname(j)));
            }
        }
        if u == 0 {
            out.push_str(&format!("fn<int(int, int)> table[{TABLE_LEN}];\n"));
            out.push_str("int dispatch(int idx, int a, int b) { return table[idx & 7](a, b); }\n");
        } else if uses_dispatch {
            out.push_str("extern int dispatch(int idx, int a, int b);\n");
        }
        for (j, f) in self.funcs.iter().enumerate().filter(|(_, f)| f.unit == u) {
            let st = if f.shared { "" } else { "static " };
            out.push_str(&format!("{st}int {}(int a, int b) {{\n", self.fname(j)));
            for v in 2..f.locals {
                out.push_str(&format!("    int v{v} = 0;\n"));
            }
            for s in &f.body {
                self.stmt_src(s, 1, &mut out);
            }
            out.push_str(&format!("    return {};\n}}\n", self.expr_src(&f.ret)));
        }
        if u == 0 {
            out.push_str("int main() {\n");
            for (k, &t) in self.table.iter().enumerate() {
                out.push_str(&format!("    table[{k}] = {};\n", self.fname(t)));
            }
            out.push_str("    int acc = 0;\n");
            for (k, &(f, a, b)) in self.roots.iter().enumerate() {
                out.push_str(&format!(
                    "    acc = acc * 31 + {}({a}, {b});\n",
                    self.fname(f)
                ));
                if k % 4 == 3 {
                    out.push_str("    print_int(acc);\n");
                }
            }
            out.push_str("    print_int(acc);\n");
            for (g, &(owner, _, live)) in self.data.globals.iter().enumerate() {
                if owner == 0 && live {
                    out.push_str(&format!("    print_int(u0_g{g});\n"));
                }
            }
            out.push_str("    return acc & 127;\n}\n");
        }
        out
    }

    // -- evaluator ------------------------------------------------------

    /// Run the application in the bench-side evaluator.
    pub fn oracle(&self) -> Oracle {
        let mut m = Machine {
            app: self,
            globals: self.data.globals.iter().map(|g| g.1).collect(),
            arrays: vec![[0; ARRAY_LEN]; self.data.arrays.len()],
            bytes: vec![[0; ARRAY_LEN]; self.data.bytes.len()],
            recs: vec![(0, 0, 0); self.data.recs.len()],
        };
        let mut prints = Vec::new();
        let mut acc = 0i32;
        for (k, &(f, a, b)) in self.roots.iter().enumerate() {
            acc = acc.wrapping_mul(31).wrapping_add(m.call(f, a, b));
            if k % 4 == 3 {
                prints.push(acc);
            }
        }
        prints.push(acc);
        for (g, &(owner, _, live)) in self.data.globals.iter().enumerate() {
            if owner == 0 && live {
                prints.push(m.globals[g]);
            }
        }
        Oracle::new(&prints, acc & 127)
    }
}

fn cmp_src(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
    }
}

fn expr_calls(e: &Expr, seen: &mut [bool], dispatch: &mut bool) {
    let mut go = |e: &Expr| expr_calls(e, seen, dispatch);
    match e {
        Expr::Const(_)
        | Expr::Local(_)
        | Expr::Global(_)
        | Expr::Field(..)
        | Expr::FieldWide(..) => {}
        Expr::Elem(_, i) | Expr::Byte(_, i) => go(i),
        Expr::DivC(l, _) | Expr::RemC(l, _) | Expr::ShlC(l, _) | Expr::ShrC(l, _) => go(l),
        Expr::Bin(_, l, r) | Expr::WideMul(l, r) => {
            go(l);
            go(r);
        }
        Expr::Select(_, l, r, a, b) => {
            go(l);
            go(r);
            go(a);
            go(b);
        }
        Expr::Call(f, a, b) => {
            go(a);
            go(b);
            seen[*f] = true;
        }
        Expr::CallTable(i, a, b) => {
            go(i);
            go(a);
            go(b);
            *dispatch = true;
        }
    }
}

fn stmt_calls(s: &Stmt, seen: &mut [bool], dispatch: &mut bool) {
    match s {
        Stmt::Assign(_, e)
        | Stmt::SetGlobal(_, e)
        | Stmt::SetField(_, _, e)
        | Stmt::HeapArr(_, _, e) => expr_calls(e, seen, dispatch),
        Stmt::SetElem(_, a, b)
        | Stmt::SetByte(_, a, b)
        | Stmt::SetFieldWide(_, a, b)
        | Stmt::HeapRec(_, a, b) => {
            expr_calls(a, seen, dispatch);
            expr_calls(b, seen, dispatch);
        }
        Stmt::If(_, l, r, then, els) => {
            expr_calls(l, seen, dispatch);
            expr_calls(r, seen, dispatch);
            for t in then.iter().chain(els) {
                stmt_calls(t, seen, dispatch);
            }
        }
        Stmt::For(_, _, body) => {
            for t in body {
                stmt_calls(t, seen, dispatch);
            }
        }
    }
}

struct Machine<'a> {
    app: &'a App,
    globals: Vec<i32>,
    arrays: Vec<[i32; ARRAY_LEN]>,
    bytes: Vec<[i8; ARRAY_LEN]>,
    /// (a, b, c)
    recs: Vec<(i32, i32, i64)>,
}

struct Frame {
    locals: Vec<i32>,
    loops: Vec<i32>,
}

impl Frame {
    fn get(&self, v: usize) -> i32 {
        if v >= 1000 {
            self.loops[v - 1000]
        } else {
            self.locals[v]
        }
    }
}

fn cmp(op: CmpOp, l: i32, r: i32) -> bool {
    match op {
        CmpOp::Lt => l < r,
        CmpOp::Le => l <= r,
        CmpOp::Eq => l == r,
        CmpOp::Ne => l != r,
    }
}

impl Machine<'_> {
    fn call(&mut self, f: usize, a: i32, b: i32) -> i32 {
        let func = &self.app.funcs[f];
        let mut fr = Frame {
            locals: vec![0; func.locals],
            loops: Vec::new(),
        };
        fr.locals[0] = a;
        fr.locals[1] = b;
        self.block(&func.body, &mut fr);
        self.eval(&func.ret, &fr)
    }

    fn eval(&mut self, e: &Expr, fr: &Frame) -> i32 {
        match e {
            Expr::Const(c) => *c,
            Expr::Local(v) => fr.get(*v),
            Expr::Global(g) => self.globals[*g],
            Expr::Elem(a, i) => {
                let i = self.eval(i, fr);
                self.arrays[*a][(i & 63) as usize]
            }
            Expr::Byte(a, i) => {
                let i = self.eval(i, fr);
                i32::from(self.bytes[*a][(i & 63) as usize])
            }
            Expr::Field(r, 0) => self.recs[*r].0,
            Expr::Field(r, _) => self.recs[*r].1,
            Expr::FieldWide(r, sh) => (self.recs[*r].2 >> sh) as i32,
            Expr::Bin(op, l, r) => {
                let (l, r) = (self.eval(l, fr), self.eval(r, fr));
                match op {
                    BinOp::Add => l.wrapping_add(r),
                    BinOp::Sub => l.wrapping_sub(r),
                    BinOp::Mul => l.wrapping_mul(r),
                    BinOp::And => l & r,
                    BinOp::Or => l | r,
                    BinOp::Xor => l ^ r,
                }
            }
            Expr::DivC(l, c) => self.eval(l, fr).wrapping_div(*c),
            Expr::RemC(l, c) => self.eval(l, fr).wrapping_rem(*c),
            Expr::ShlC(l, k) => self.eval(l, fr).wrapping_shl(u32::from(*k)),
            Expr::ShrC(l, k) => self.eval(l, fr) >> k,
            Expr::WideMul(l, r) => {
                let (l, r) = (self.eval(l, fr), self.eval(r, fr));
                ((i64::from(l) * i64::from(r)) >> 16) as i32
            }
            Expr::Select(op, l, r, a, b) => {
                let (l, r) = (self.eval(l, fr), self.eval(r, fr));
                if cmp(*op, l, r) {
                    self.eval(a, fr)
                } else {
                    self.eval(b, fr)
                }
            }
            Expr::Call(f, a, b) => {
                let (a, b) = (self.eval(a, fr), self.eval(b, fr));
                self.call(*f, a, b)
            }
            Expr::CallTable(i, a, b) => {
                let i = self.eval(i, fr);
                let (a, b) = (self.eval(a, fr), self.eval(b, fr));
                self.call(self.app.table[(i & 7) as usize], a, b)
            }
        }
    }

    fn block(&mut self, body: &[Stmt], fr: &mut Frame) {
        for s in body {
            match s {
                Stmt::Assign(v, e) => fr.locals[*v] = self.eval(e, fr),
                Stmt::SetGlobal(g, e) => self.globals[*g] = self.eval(e, fr),
                Stmt::SetElem(a, i, e) => {
                    // miniC evaluates the address of an assignment's
                    // left-hand side before its right-hand side.
                    let i = self.eval(i, fr);
                    let v = self.eval(e, fr);
                    self.arrays[*a][(i & 63) as usize] = v;
                }
                Stmt::SetByte(a, i, e) => {
                    let i = self.eval(i, fr);
                    let v = self.eval(e, fr);
                    self.bytes[*a][(i & 63) as usize] = v as i8;
                }
                Stmt::SetField(r, 0, e) => self.recs[*r].0 = self.eval(e, fr),
                Stmt::SetField(r, _, e) => self.recs[*r].1 = self.eval(e, fr),
                Stmt::SetFieldWide(r, a, b) => {
                    let (a, b) = (self.eval(a, fr), self.eval(b, fr));
                    self.recs[*r].2 = i64::from(a) * i64::from(b);
                }
                Stmt::If(op, l, r, then, els) => {
                    let (l, r) = (self.eval(l, fr), self.eval(r, fr));
                    if cmp(*op, l, r) {
                        self.block(then, fr);
                    } else {
                        self.block(els, fr);
                    }
                }
                Stmt::For(v, trip, body) => {
                    debug_assert_eq!(*v, 1000 + fr.loops.len());
                    fr.loops.push(0);
                    for i in 0..*trip {
                        *fr.loops.last_mut().expect("pushed") = i;
                        self.block(body, fr);
                    }
                    fr.loops.pop();
                }
                Stmt::HeapRec(dst, x, y) => {
                    let (x, y) = (self.eval(x, fr), self.eval(y, fr));
                    fr.locals[*dst] = x.wrapping_mul(3).wrapping_add(y);
                }
                Stmt::HeapArr(dst, n, x) => {
                    let x = self.eval(x, fr);
                    fr.locals[*dst] = x.wrapping_add(n - 1) ^ x;
                }
            }
        }
    }
}
