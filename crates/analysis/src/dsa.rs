//! Data-structure analysis (DSA): a flow-insensitive, field-sensitive,
//! unification-based pointer analysis with **speculative type checking**
//! (paper §3.3, §4.1.1).
//!
//! Memory objects are abstracted by graph *nodes*. Each node carries the
//! *declared* type of its allocation (from `malloc`/`alloca` element types
//! and global definitions) as **speculative** type information, and the
//! analysis *checks* — it never infers — that every access through the node
//! is consistent with that type. When accesses disagree (custom allocators
//! carving objects out of byte arrays, one object used under two struct
//! types, integer-to-pointer tricks), the node is **collapsed** and all its
//! accesses become untyped. Table 1 of the paper counts the static loads
//! and stores whose node survives un-collapsed with a matching field type;
//! [`Dsa::access_stats`] reproduces that metric.
//!
//! Simplifications relative to the paper's full DSA: the analysis here is
//! context-insensitive (one global graph rather than bottom-up/top-down
//! per-function graphs) and unification-based throughout. It remains
//! field-sensitive and speculative, which are the properties the type
//! statistics depend on.

use std::collections::{BTreeMap, HashMap, HashSet};

use lpat_core::{
    Const, ConstId, FuncId, Function, GepError, GepStep, GlobalId, Inst, InstId, Module, Type,
    TypeId, Value,
};

use crate::callgraph::CallGraph;

/// Handle to a DSA node (always resolve through union-find before use).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where a node's storage lives and how it is used.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeFlags {
    /// Allocated by `malloc`.
    pub heap: bool,
    /// Allocated by `alloca`.
    pub stack: bool,
    /// A global variable.
    pub global: bool,
    /// Reachable by external (unanalyzed) code.
    pub external: bool,
    /// Represents a function (code, not data).
    pub function: bool,
}

impl NodeFlags {
    fn merge(&mut self, o: NodeFlags) {
        self.heap |= o.heap;
        self.stack |= o.stack;
        self.global |= o.global;
        self.external |= o.external;
        self.function |= o.function;
    }
}

#[derive(Clone, Debug, Default)]
struct NodeData {
    /// Speculative declared type of the object (None = not yet known).
    ty: Option<TypeId>,
    /// Type information lost.
    collapsed: bool,
    /// Pointer field targets by byte offset.
    fields: BTreeMap<u64, NodeId>,
    flags: NodeFlags,
}

/// A pointer value's static offset into its node.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Off {
    Known(u64),
    Unknown,
}

impl Off {
    fn add(self, d: Off) -> Off {
        match (self, d) {
            (Off::Known(a), Off::Known(b)) => Off::Known(a + b),
            _ => Off::Unknown,
        }
    }
    fn meet(a: Option<Off>, b: Off) -> Off {
        match a {
            None => b,
            Some(Off::Known(x)) => match b {
                Off::Known(y) if y == x => Off::Known(x),
                _ => Off::Unknown,
            },
            Some(Off::Unknown) => Off::Unknown,
        }
    }
}

/// Analysis options.
#[derive(Clone, Debug)]
pub struct DsaOptions {
    /// External functions that neither capture nor retype their pointer
    /// arguments (I/O helpers, `puts`-alikes). Pointers passed to any
    /// *other* external are conservatively collapsed.
    pub benign_externals: HashSet<String>,
    /// Field sensitivity (disable for the Table 1 ablation: every
    /// `getelementptr` offset becomes unknown, collapsing aggressively).
    pub field_sensitive: bool,
}

impl Default for DsaOptions {
    fn default() -> Self {
        let benign = [
            "puts",
            "printf",
            "print_int",
            "print_str",
            "print_double",
            "read_int",
            "putchar",
            "exit",
            "abort",
        ];
        DsaOptions {
            benign_externals: benign.iter().map(|s| s.to_string()).collect(),
            field_sensitive: true,
        }
    }
}

/// Per-access classification, for reporting.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AccessInfo {
    /// The load or store instruction.
    pub inst: InstId,
    /// Whether reliable type information is available for the accessed
    /// object (the Table 1 "Typed" column).
    pub typed: bool,
}

/// Aggregate typed-access statistics (one row of Table 1).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Loads/stores with reliable type information.
    pub typed: usize,
    /// Loads/stores without.
    pub untyped: usize,
}

impl AccessStats {
    /// `typed / (typed + untyped)` as a percentage.
    pub fn percent(&self) -> f64 {
        let total = self.typed + self.untyped;
        if total == 0 {
            100.0
        } else {
            self.typed as f64 * 100.0 / total as f64
        }
    }
}

/// The analysis result.
pub struct Dsa {
    uf: Vec<u32>,
    nodes: Vec<NodeData>,
    global_nodes: Vec<NodeId>,
    func_obj_nodes: Vec<NodeId>,
    /// Per-function map from pointer values to nodes.
    val_nodes: Vec<HashMap<Value, NodeId>>,
    /// Per-function pointer offsets.
    offsets: Vec<HashMap<Value, Off>>,
    /// Per-function access classification.
    accesses: Vec<Vec<AccessInfo>>,
}

impl Dsa {
    /// Run the analysis over a whole module (this is a link-time,
    /// whole-program analysis: precision comes from seeing every function —
    /// paper §4.2.1 point (a)).
    pub fn analyze(m: &Module, cg: &CallGraph, opts: &DsaOptions) -> Dsa {
        let mut a = Builder::new(m, cg, opts);
        a.seed();
        a.constraints();
        a.classify();
        a.finish()
    }

    /// Typed-access statistics for the whole module.
    pub fn access_stats(&self) -> AccessStats {
        let mut s = AccessStats::default();
        for f in &self.accesses {
            for acc in f {
                if acc.typed {
                    s.typed += 1;
                } else {
                    s.untyped += 1;
                }
            }
        }
        s
    }

    /// Typed-access statistics for one function.
    pub fn access_stats_for(&self, f: FuncId) -> AccessStats {
        let mut s = AccessStats::default();
        for acc in &self.accesses[f.index()] {
            if acc.typed {
                s.typed += 1;
            } else {
                s.untyped += 1;
            }
        }
        s
    }

    /// Per-access classification for one function.
    pub fn accesses(&self, f: FuncId) -> &[AccessInfo] {
        &self.accesses[f.index()]
    }

    fn find(&self, mut n: u32) -> u32 {
        while self.uf[n as usize] != n {
            n = self.uf[n as usize];
        }
        n
    }

    /// The representative node a pointer value points to, if tracked.
    pub fn node_of(&self, m: &Module, f: FuncId, v: Value) -> Option<NodeId> {
        if let Value::Const(c) = v {
            match m.consts.get(c) {
                Const::GlobalAddr(g) => return Some(self.node_of_global(*g)),
                Const::FuncAddr(t) => {
                    return Some(NodeId(self.find(self.func_obj_nodes[t.index()].0)))
                }
                _ => {}
            }
        }
        self.val_nodes[f.index()]
            .get(&v)
            .map(|n| NodeId(self.find(n.0)))
    }

    /// The node of a global variable.
    fn node_of_global(&self, g: GlobalId) -> NodeId {
        NodeId(self.find(self.global_nodes[g.index()].0))
    }

    /// Whether the node has lost its type information.
    pub fn is_collapsed(&self, n: NodeId) -> bool {
        self.nodes[self.find(n.0) as usize].collapsed
    }

    /// Storage/usage flags of the node.
    pub fn node_flags(&self, n: NodeId) -> NodeFlags {
        self.nodes[self.find(n.0) as usize].flags
    }

    /// The static byte offset of pointer value `v` into its node, when
    /// known exactly (`None` covers both untracked values and unknown
    /// offsets).
    pub fn known_offset(&self, f: FuncId, v: Value) -> Option<u64> {
        match self.offsets[f.index()].get(&v) {
            Some(Off::Known(o)) => Some(*o),
            _ => None,
        }
    }
}

// ----------------------------------------------------------------------
// Construction
// ----------------------------------------------------------------------

struct Builder<'a> {
    m: &'a Module,
    cg: &'a CallGraph,
    opts: &'a DsaOptions,
    uf: Vec<u32>,
    nodes: Vec<NodeData>,
    global_nodes: Vec<NodeId>,
    func_obj_nodes: Vec<NodeId>,
    param_nodes: Vec<Vec<Option<NodeId>>>,
    ret_nodes: Vec<Option<NodeId>>,
    val_nodes: Vec<HashMap<Value, NodeId>>,
    offsets: Vec<HashMap<Value, Off>>,
    accesses: Vec<Vec<AccessInfo>>,
}

impl<'a> Builder<'a> {
    fn new(m: &'a Module, cg: &'a CallGraph, opts: &'a DsaOptions) -> Builder<'a> {
        Builder {
            m,
            cg,
            opts,
            uf: Vec::new(),
            nodes: Vec::new(),
            global_nodes: Vec::new(),
            func_obj_nodes: Vec::new(),
            param_nodes: Vec::new(),
            ret_nodes: Vec::new(),
            val_nodes: vec![HashMap::new(); m.num_funcs()],
            offsets: vec![HashMap::new(); m.num_funcs()],
            accesses: vec![Vec::new(); m.num_funcs()],
        }
    }

    fn fresh(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.uf.push(id.0);
        self.nodes.push(NodeData::default());
        id
    }

    fn find(&mut self, mut n: u32) -> u32 {
        // Path halving.
        while self.uf[n as usize] != n {
            self.uf[n as usize] = self.uf[self.uf[n as usize] as usize];
            n = self.uf[n as usize];
        }
        n
    }

    /// Unify two nodes (and, transitively, their matching fields).
    fn union(&mut self, a: NodeId, b: NodeId) {
        let mut work = vec![(a, b)];
        while let Some((a, b)) = work.pop() {
            let ra = self.find(a.0);
            let rb = self.find(b.0);
            if ra == rb {
                continue;
            }
            // Merge rb into ra.
            self.uf[rb as usize] = ra;
            let bdata = std::mem::take(&mut self.nodes[rb as usize]);
            let adata = &mut self.nodes[ra as usize];
            adata.flags.merge(bdata.flags);
            let mut need_collapse = bdata.collapsed;
            match (adata.ty, bdata.ty) {
                (Some(x), Some(y)) if x != y => need_collapse = true,
                (None, Some(y)) => adata.ty = Some(y),
                _ => {}
            }
            for (off, n) in bdata.fields {
                match self.nodes[ra as usize].fields.get(&off) {
                    Some(&e) => work.push((e, n)),
                    None => {
                        self.nodes[ra as usize].fields.insert(off, n);
                    }
                }
            }
            if need_collapse {
                self.collapse_into(NodeId(ra), &mut work);
            }
        }
    }

    /// Collapse a node: type info is lost, all pointer fields merge into a
    /// single successor at offset 0.
    fn collapse_into(&mut self, n: NodeId, work: &mut Vec<(NodeId, NodeId)>) {
        let r = self.find(n.0);
        let data = &mut self.nodes[r as usize];
        data.collapsed = true;
        data.ty = None;
        let fields = std::mem::take(&mut data.fields);
        let mut it = fields.into_values();
        if let Some(first) = it.next() {
            self.nodes[r as usize].fields.insert(0, first);
            for other in it {
                work.push((first, other));
            }
        }
    }

    fn collapse(&mut self, n: NodeId) {
        let mut work = Vec::new();
        self.collapse_into(n, &mut work);
        while let Some((a, b)) = work.pop() {
            self.union(a, b);
        }
    }

    /// Speculatively set the declared allocation type; a disagreement
    /// collapses the node (we check, never infer).
    fn set_alloc_type(&mut self, n: NodeId, ty: TypeId) {
        let r = self.find(n.0);
        let data = &mut self.nodes[r as usize];
        if data.collapsed {
            return;
        }
        match data.ty {
            None => data.ty = Some(ty),
            Some(t) if t == ty => {}
            Some(_) => self.collapse(NodeId(r)),
        }
    }

    /// The node a pointer stored in `n` at `off` points to.
    fn field(&mut self, n: NodeId, off: Off) -> NodeId {
        let mut r = self.find(n.0);
        let off = match off {
            Off::Known(o) if !self.nodes[r as usize].collapsed => o,
            _ => {
                self.collapse(NodeId(r));
                r = self.find(r);
                0
            }
        };
        if let Some(&f) = self.nodes[r as usize].fields.get(&off) {
            return f;
        }
        let f = self.fresh();
        let rep = self.find(r) as usize;
        self.nodes[rep].fields.insert(off, f);
        f
    }

    fn flags_mut(&mut self, n: NodeId) -> &mut NodeFlags {
        let r = self.find(n.0);
        &mut self.nodes[r as usize].flags
    }

    /// Node for a value; created fresh on first sight.
    fn node_of(&mut self, fid: FuncId, v: Value) -> NodeId {
        if let Value::Const(c) = v {
            match self.m.consts.get(c) {
                Const::GlobalAddr(g) => return self.global_nodes[g.index()],
                Const::FuncAddr(f) => return self.func_obj_nodes[f.index()],
                _ => {}
            }
        }
        if let Some(&n) = self.val_nodes[fid.index()].get(&v) {
            return n;
        }
        let n = self.fresh();
        self.val_nodes[fid.index()].insert(v, n);
        n
    }

    // ---- seeding --------------------------------------------------------

    fn seed(&mut self) {
        for (gid, g) in self.m.globals() {
            let n = self.fresh();
            self.global_nodes.push(n);
            self.set_alloc_type(n, g.value_ty);
            self.flags_mut(n).global = true;
            if g.is_declaration() {
                self.flags_mut(n).external = true;
            }
            let _ = gid;
        }
        for (fid, f) in self.m.funcs() {
            let n = self.fresh();
            self.func_obj_nodes.push(n);
            self.flags_mut(n).function = true;
            let params = f
                .params()
                .iter()
                .map(|&p| {
                    if self.m.types.is_ptr(p) {
                        Some(self.fresh())
                    } else {
                        None
                    }
                })
                .collect();
            self.param_nodes.push(params);
            let ret = if self.m.types.is_ptr(f.ret_type()) {
                Some(self.fresh())
            } else {
                None
            };
            self.ret_nodes.push(ret);
            let _ = fid;
        }
        // Global initializers: pointer fields link to their targets.
        for (gid, g) in self.m.globals() {
            if let Some(init) = g.init {
                let n = self.global_nodes[gid.index()];
                self.seed_init(n, 0, init);
            }
        }
        // Pointer params map to their param node at offset 0.
        for (fid, f) in self.m.funcs() {
            for (i, &p) in f.params().to_vec().iter().enumerate() {
                if self.m.types.is_ptr(p) {
                    let pn = self.param_nodes[fid.index()][i].unwrap();
                    self.val_nodes[fid.index()].insert(Value::Arg(i as u32), pn);
                }
            }
        }
    }

    /// Link pointer constants inside initializers into the node graph.
    fn seed_init(&mut self, n: NodeId, off: u64, c: ConstId) {
        match self.m.consts.get(c).clone() {
            Const::GlobalAddr(g) => {
                let target = self.global_nodes[g.index()];
                let f = self.field(n, Off::Known(off));
                self.union(f, target);
            }
            Const::FuncAddr(fu) => {
                let target = self.func_obj_nodes[fu.index()];
                let f = self.field(n, Off::Known(off));
                self.union(f, target);
            }
            Const::Array { ty, elems } => {
                let elem_ty = match self.m.types.ty(ty) {
                    Type::Array { elem, .. } => *elem,
                    _ => return,
                };
                let sz = self.m.types.size_of(elem_ty);
                for (i, e) in elems.iter().enumerate() {
                    // Array elements fold: field sensitivity is modulo the
                    // element size, so link at the folded offset.
                    let _ = i;
                    let _ = sz;
                    self.seed_init(n, off, *e);
                }
            }
            Const::Struct { ty, fields } => {
                for (i, e) in fields.iter().enumerate() {
                    let fo = self.m.types.field_offset(ty, i);
                    self.seed_init(n, off + fo, *e);
                }
            }
            _ => {}
        }
    }

    // ---- offsets ---------------------------------------------------------

    /// Flow-insensitive fixpoint computing each pointer value's byte offset
    /// into its node. Arrays fold: a variable index contributes zero, so
    /// `a[i].f` keeps the field offset of `f`.
    fn compute_offsets(&mut self, fid: FuncId) {
        let f = self.m.func(fid);
        let mut offs: HashMap<Value, Off> = HashMap::new();
        // Roots.
        for (i, &p) in f.params().iter().enumerate() {
            if self.m.types.is_ptr(p) {
                offs.insert(Value::Arg(i as u32), Off::Known(0));
            }
        }
        let inst_ids: Vec<InstId> = f.inst_ids_in_order().collect();
        let mut changed = true;
        while changed {
            changed = false;
            for &iid in &inst_ids {
                let v = Value::Inst(iid);
                let ty = f.inst_ty(iid);
                if !self.m.types.is_ptr(ty) {
                    continue;
                }
                let new = match f.inst(iid) {
                    Inst::Alloca { .. }
                    | Inst::Malloc { .. }
                    | Inst::Load { .. }
                    | Inst::Call { .. }
                    | Inst::Invoke { .. }
                    | Inst::VaArg { .. } => Off::Known(0),
                    Inst::Cast { val, .. } => {
                        let src_ty = self.m.value_type(f, *val);
                        if self.m.types.is_ptr(src_ty) {
                            match self.value_off(&offs, *val) {
                                Some(o) => o,
                                None => continue,
                            }
                        } else {
                            Off::Unknown // int -> ptr
                        }
                    }
                    Inst::Gep { ptr, indices } => {
                        let base = match self.value_off(&offs, *ptr) {
                            Some(o) => o,
                            None => continue,
                        };
                        let bty = self.m.value_type(f, *ptr);
                        base.add(self.gep_delta(bty, indices))
                    }
                    Inst::Phi { incoming } => {
                        let mut acc: Option<Off> = None;
                        let mut any = false;
                        for (v, _) in incoming {
                            if let Some(o) = self.value_off(&offs, *v) {
                                acc = Some(Off::meet(acc, o));
                                any = true;
                            }
                        }
                        match (any, acc) {
                            (true, Some(o)) => o,
                            _ => continue,
                        }
                    }
                    Inst::Bin { .. } => Off::Unknown, // pointer arithmetic outside gep
                    _ => Off::Known(0),
                };
                let entry = offs.get(&v).copied();
                let merged = Off::meet(entry, new);
                if entry != Some(merged) {
                    offs.insert(v, merged);
                    changed = true;
                }
            }
        }
        self.offsets[fid.index()] = offs;
    }

    fn value_off(&self, offs: &HashMap<Value, Off>, v: Value) -> Option<Off> {
        match v {
            Value::Const(_) => Some(Off::Known(0)),
            _ => offs.get(&v).copied(),
        }
    }

    /// Byte delta contributed by a GEP's index list. Constant indices give
    /// exact offsets; variable array indices fold to zero (array
    /// sensitivity is modulo the element size); anything irregular gives
    /// `Unknown`.
    fn gep_delta(&self, base_ptr_ty: TypeId, indices: &[Value]) -> Off {
        if !self.opts.field_sensitive {
            return Off::Unknown;
        }
        let mut delta = 0u64;
        let mut first = true;
        let walked = self.m.types.gep_steps::<GepError>(
            base_ptr_ty,
            indices,
            true,
            |v| self.m.consts.int_of(v),
            |step| {
                delta = delta.wrapping_add(match step {
                    GepStep::Field { offset, .. } => offset,
                    GepStep::Scaled { index, stride } => match self.m.consts.int_of(index) {
                        // The pointer-as-array step wraps in the address space.
                        Some(v) if first => (v as u64).wrapping_mul(stride) & 0xFFFF_FFFF,
                        Some(v) => (v as u64).wrapping_mul(stride),
                        None => 0,
                    },
                });
                first = false;
                Ok(())
            },
        );
        walked.map_or(Off::Unknown, |_| Off::Known(delta))
    }

    // ---- constraints ------------------------------------------------------

    fn constraints(&mut self) {
        for fid in self.m.func_ids() {
            if self.m.func(fid).is_declaration() {
                continue;
            }
            self.compute_offsets(fid);
            self.constrain_func(fid);
        }
    }

    fn constrain_func(&mut self, fid: FuncId) {
        let f = self.m.func(fid).clone();
        let tys_is_ptr = |b: &Builder<'_>, t: TypeId| -> bool { b.m.types.is_ptr(t) };
        for iid in f.inst_ids_in_order().collect::<Vec<_>>() {
            let inst = f.inst(iid).clone();
            let res = Value::Inst(iid);
            match inst {
                Inst::Alloca { elem_ty, .. } | Inst::Malloc { elem_ty, .. } => {
                    let n = self.node_of(fid, res);
                    let is_heap = matches!(f.inst(iid), Inst::Malloc { .. });
                    if is_heap {
                        self.flags_mut(n).heap = true;
                    } else {
                        self.flags_mut(n).stack = true;
                    }
                    // `malloc T, uint N` is an array of T, folded to T
                    // whatever N is (array sensitivity is modulo the
                    // element size).
                    self.set_alloc_type(n, elem_ty);
                }
                Inst::Cast { val, to } => {
                    let from = self.m.value_type(&f, val);
                    if tys_is_ptr(self, to) {
                        if tys_is_ptr(self, from) {
                            let a = self.node_of(fid, val);
                            let b = self.node_of(fid, res);
                            self.union(a, b);
                        } else {
                            // int -> ptr: unknown object.
                            let n = self.node_of(fid, res);
                            self.collapse(n);
                        }
                    }
                }
                Inst::Gep { ptr, .. } => {
                    let a = self.node_of(fid, ptr);
                    let b = self.node_of(fid, res);
                    self.union(a, b);
                }
                Inst::Phi { incoming } if tys_is_ptr(self, f.inst_ty(iid)) => {
                    let r = self.node_of(fid, res);
                    for (v, _) in incoming {
                        let n = self.node_of(fid, v);
                        self.union(r, n);
                    }
                }
                Inst::Load { ptr } => {
                    let n = self.node_of(fid, ptr);
                    let ty = f.inst_ty(iid);
                    if tys_is_ptr(self, ty) {
                        let off = self.off_of(fid, ptr);
                        let fnode = self.field(n, off);
                        let r = self.node_of(fid, res);
                        self.union(fnode, r);
                    }
                }
                Inst::Store { val, ptr } => {
                    let n = self.node_of(fid, ptr);
                    let vt = self.m.value_type(&f, val);
                    if tys_is_ptr(self, vt) {
                        let off = self.off_of(fid, ptr);
                        let fnode = self.field(n, off);
                        let v = self.node_of(fid, val);
                        self.union(fnode, v);
                    }
                }
                Inst::Call { callee, args } | Inst::Invoke { callee, args, .. } => {
                    self.constrain_call(fid, &f, iid, callee, &args);
                }
                Inst::Ret(Some(v)) if tys_is_ptr(self, self.m.value_type(&f, v)) => {
                    let n = self.node_of(fid, v);
                    if let Some(rn) = self.ret_nodes[fid.index()] {
                        self.union(n, rn);
                    }
                }
                Inst::Free(_) => {}
                _ => {}
            }
        }
    }

    fn off_of(&self, fid: FuncId, v: Value) -> Off {
        match v {
            Value::Const(_) => Off::Known(0),
            _ => self.offsets[fid.index()]
                .get(&v)
                .copied()
                .unwrap_or(Off::Unknown),
        }
    }

    fn constrain_call(
        &mut self,
        fid: FuncId,
        f: &Function,
        iid: InstId,
        callee: Value,
        args: &[Value],
    ) {
        let res = Value::Inst(iid);
        let direct = match callee {
            Value::Const(c) => match self.m.consts.get(c) {
                Const::FuncAddr(t) => Some(*t),
                _ => None,
            },
            _ => None,
        };
        let targets: Vec<FuncId> = match direct {
            Some(t) => vec![t],
            None => self
                .m
                .func_ids()
                .filter(|t| self.cg.is_address_taken(*t))
                .collect(),
        };
        for t in targets {
            let target = self.m.func(t);
            if target.is_declaration() {
                let benign = self.opts.benign_externals.contains(target.name());
                for &a in args {
                    let at = self.m.value_type(f, a);
                    if self.m.types.is_ptr(at) {
                        let n = self.node_of(fid, a);
                        self.flags_mut(n).external = true;
                        if !benign {
                            self.collapse_reachable(n);
                        }
                    }
                }
                if self.m.types.is_ptr(f.inst_ty(iid)) {
                    let n = self.node_of(fid, res);
                    self.flags_mut(n).external = true;
                    if !benign {
                        self.collapse(n);
                    }
                }
                continue;
            }
            for (i, &a) in args.iter().enumerate() {
                let at = self.m.value_type(f, a);
                if !self.m.types.is_ptr(at) {
                    continue;
                }
                if let Some(Some(pn)) = self.param_nodes[t.index()].get(i).copied() {
                    let n = self.node_of(fid, a);
                    self.union(n, pn);
                }
            }
            if self.m.types.is_ptr(f.inst_ty(iid)) {
                if let Some(rn) = self.ret_nodes[t.index()] {
                    let n = self.node_of(fid, res);
                    self.union(n, rn);
                }
            }
        }
    }

    /// Conservatively collapse a node and everything reachable from it
    /// (an unanalyzed external may follow any pointer chain it receives).
    fn collapse_reachable(&mut self, n: NodeId) {
        let mut seen = HashSet::new();
        let mut work = vec![n];
        while let Some(n) = work.pop() {
            let r = self.find(n.0);
            if !seen.insert(r) {
                continue;
            }
            self.collapse(NodeId(r));
            let r = self.find(r);
            self.nodes[r as usize].flags.external = true;
            let succs: Vec<NodeId> = self.nodes[r as usize].fields.values().copied().collect();
            work.extend(succs);
        }
    }

    // ---- classification ----------------------------------------------------

    fn classify(&mut self) {
        for fid in self.m.func_ids() {
            let f = self.m.func(fid).clone();
            if f.is_declaration() {
                continue;
            }
            let mut out = Vec::new();
            for iid in f.inst_ids_in_order() {
                let (ptr, want) = match f.inst(iid) {
                    Inst::Load { ptr } => (*ptr, f.inst_ty(iid)),
                    Inst::Store { val, ptr } => (*ptr, self.m.value_type(&f, *val)),
                    _ => continue,
                };
                let typed = self.access_is_typed(fid, ptr, want);
                out.push(AccessInfo { inst: iid, typed });
            }
            self.accesses[fid.index()] = out;
        }
    }

    fn access_is_typed(&mut self, fid: FuncId, ptr: Value, want: TypeId) -> bool {
        let n = self.node_of(fid, ptr);
        let r = self.find(n.0);
        let data = &self.nodes[r as usize];
        if data.collapsed {
            return false;
        }
        let declared = match data.ty {
            Some(t) => t,
            None => return false,
        };
        let off = match self.off_of(fid, ptr) {
            Off::Known(o) => o,
            Off::Unknown => return false,
        };
        type_at_offset(self.m, declared, off, want)
    }

    fn finish(self) -> Dsa {
        Dsa {
            uf: self.uf,
            nodes: self.nodes,
            global_nodes: self.global_nodes,
            func_obj_nodes: self.func_obj_nodes,
            val_nodes: self.val_nodes,
            offsets: self.offsets,
            accesses: self.accesses,
        }
    }
}

/// Check whether type `declared`, viewed at byte offset `off`, has a
/// primitive or pointer component of exactly type `want`.
///
/// Arrays fold: offsets are taken modulo the element size, which is what
/// makes `a[i].f` accesses typed without reasoning about `i`.
pub fn type_at_offset(m: &Module, declared: TypeId, off: u64, want: TypeId) -> bool {
    let mut cur = declared;
    let mut off = off;
    loop {
        if cur == want && off == 0 {
            return true;
        }
        match m.types.ty(cur).clone() {
            Type::Array { elem, .. } => {
                let sz = m.types.size_of(elem);
                if sz == 0 {
                    return false;
                }
                off %= sz;
                cur = elem;
            }
            Type::Struct { fields, .. } => {
                // Find the field containing `off`.
                let mut fo = 0u64;
                let mut found = None;
                for (i, &fty) in fields.iter().enumerate() {
                    let start = lpat_core::types::align_to(fo, m.types.align_of(fty));
                    let end = start + m.types.size_of(fty);
                    if off >= start && off < end {
                        found = Some((fty, off - start));
                        break;
                    }
                    fo = end;
                    let _ = i;
                }
                match found {
                    Some((fty, rem)) => {
                        cur = fty;
                        off = rem;
                    }
                    None => return false,
                }
            }
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    fn run(src: &str) -> (Module, Dsa) {
        let m = parse_module("t", src).unwrap();
        m.verify().unwrap();
        let cg = CallGraph::build(&m);
        let dsa = Dsa::analyze(&m, &cg, &DsaOptions::default());
        (m, dsa)
    }

    #[test]
    fn disciplined_code_is_fully_typed() {
        let (_, dsa) = run("
%pt = type { int, double }
define double @f(int %n) {
e:
  %p = malloc %pt
  %pi = getelementptr %pt* %p, long 0, ubyte 0
  store int %n, int* %pi
  %pd = getelementptr %pt* %p, long 0, ubyte 1
  store double 0x3FF0000000000000, double* %pd
  %v = load double* %pd
  ret double %v
}");
        let s = dsa.access_stats();
        assert_eq!(s.untyped, 0);
        assert_eq!(s.typed, 3);
        assert!((s.percent() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn custom_allocator_collapses() {
        // A pool allocator carving ints out of a byte array: the node's
        // declared type is sbyte, so int accesses are untyped.
        let (_, dsa) = run("
define int @f(int %n) {
e:
  %pool = malloc sbyte, uint 4096
  %p = cast sbyte* %pool to int*
  store int %n, int* %p
  %v = load int* %p
  ret int %v
}");
        let s = dsa.access_stats();
        assert_eq!(s.typed, 0);
        assert_eq!(s.untyped, 2);
    }

    #[test]
    fn type_punning_two_structs_collapses() {
        // Same object viewed as two different struct types (the 176.gcc
        // pattern): phi merges the two views, types disagree, collapse.
        let (_, dsa) = run("
%a = type { int, int }
%b = type { float, int }
define int @f(bool %c) {
e:
  br bool %c, label %l, label %r
l:
  %x = malloc %a
  %xp = cast %a* %x to int*
  br label %j
r:
  %y = malloc %b
  %yp = cast %b* %y to int*
  br label %j
j:
  %p = phi int* [ %xp, %l ], [ %yp, %r ]
  %v = load int* %p
  ret int %v
}");
        let s = dsa.access_stats();
        assert_eq!(s.typed, 0, "merged disagreeing types must collapse");
    }

    #[test]
    fn same_type_merge_stays_typed() {
        let (_, dsa) = run("
define int @f(bool %c) {
e:
  br bool %c, label %l, label %r
l:
  %x = malloc int
  br label %j
r:
  %y = malloc int
  br label %j
j:
  %p = phi int* [ %x, %l ], [ %y, %r ]
  %v = load int* %p
  ret int %v
}");
        assert_eq!(dsa.access_stats().typed, 1);
        assert_eq!(dsa.access_stats().untyped, 0);
    }

    #[test]
    fn array_of_structs_with_variable_index_stays_typed() {
        let (_, dsa) = run("
%s = type { int, float }
define float @f(long %i) {
e:
  %a = malloc [16 x %s]
  %p = getelementptr [16 x %s]* %a, long 0, long %i, ubyte 1
  %v = load float* %p
  ret float %v
}");
        assert_eq!(dsa.access_stats().typed, 1);
    }

    #[test]
    fn interprocedural_flow_keeps_types() {
        let (_, dsa) = run("
define void @init(int* %p) {
e:
  store int 1, int* %p
  ret void
}
define int @main() {
e:
  %x = malloc int
  call void @init(int* %x)
  %v = load int* %x
  ret int %v
}");
        assert_eq!(dsa.access_stats().typed, 2);
        assert_eq!(dsa.access_stats().untyped, 0);
    }

    #[test]
    fn nonbenign_external_collapses() {
        let (m, dsa) = run("
declare void @mystery(int*)
define int @main() {
e:
  %x = malloc int
  call void @mystery(int* %x)
  %v = load int* %x
  ret int %v
}");
        let main = m.func_by_name("main").unwrap();
        assert_eq!(dsa.access_stats_for(main).untyped, 1);
    }

    #[test]
    fn benign_external_keeps_types() {
        let (_, dsa) = run("
declare int @puts(sbyte*)
define int @main() {
e:
  %s = malloc sbyte, uint 8
  store sbyte 0, sbyte* %s
  %r = call int @puts(sbyte* %s)
  ret int %r
}");
        assert_eq!(dsa.access_stats().typed, 1);
    }

    #[test]
    fn global_accesses_are_typed() {
        let (m, dsa) = run("
@g = global int 5
define int @f() {
e:
  %v = load int* @g
  store int 6, int* @g
  ret int %v
}");
        assert_eq!(dsa.access_stats().typed, 2);
        let g = m.global_by_name("g").unwrap();
        let n = dsa.node_of_global(g);
        assert!(dsa.node_flags(n).global);
    }

    #[test]
    fn distinct_allocations_get_distinct_nodes() {
        let (m, dsa) = run("
define void @f() {
e:
  %a = malloc int
  %b = malloc int
  store int 1, int* %a
  store int 2, int* %b
  ret void
}");
        let f = m.func_by_name("f").unwrap();
        let a = Value::Inst(lpat_core::InstId::from_index(0));
        let b = Value::Inst(lpat_core::InstId::from_index(1));
        let (na, nb) = (dsa.node_of(&m, f, a), dsa.node_of(&m, f, b));
        assert!(na.is_some() && nb.is_some());
        assert_ne!(na, nb);
    }

    #[test]
    fn void_star_roundtrip_stays_typed() {
        // DSA is aggressive: storing through a void* (sbyte*) cast and
        // loading back at the same type keeps the node typed, because the
        // *declared allocation type* is checked, not the cast chain
        // (paper footnote 8).
        let (_, dsa) = run("
%s = type { int, int* }
define int @f() {
e:
  %x = malloc %s
  %vp = cast %s* %x to sbyte*
  %back = cast sbyte* %vp to %s*
  %p = getelementptr %s* %back, long 0, ubyte 0
  %v = load int* %p
  ret int %v
}");
        assert_eq!(dsa.access_stats().typed, 1);
        assert_eq!(dsa.access_stats().untyped, 0);
    }
}
