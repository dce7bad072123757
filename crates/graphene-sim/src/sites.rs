//! The access-site table: one walk over a kernel's decomposition that
//! every static analysis queries.
//!
//! Graphene IR "precisely describes the implementation" (paper §5.5):
//! each access is an atomic spec at a known loop nest, guard set and
//! operand view. One walk records exactly that once per
//! undecomposed spec that matches an atomic spec — its statement path,
//! loop domain, guards, matched instruction, executing lanes, rendered
//! header and operands. The counter analysis ([`crate::analyze_cached`]),
//! bank-conflict grading, bounds proofs and swizzle synthesis are loops
//! over [`Sites::sites`]; the race detector keeps its own program-order
//! walk (it is flow-sensitive) and reads each spec's record by path.
//!
//! The table is memoized in the kernel's [`crate::PlanCache`]
//! ([`crate::PlanCache::sites`]), so every pass over one candidate shares
//! one walk.

use crate::analyze::exec_lanes;
use graphene_ir::atomic::{match_atomic, registry, AtomicSpec};
use graphene_ir::body::{Predicate, Stmt, SyncScope};
use graphene_ir::printer::render_spec_header;
use graphene_ir::spec::Spec;
use graphene_ir::{Arch, Kernel, MemSpace, Module, TensorId, ThreadId};
use graphene_layout::Layout;
use std::collections::HashMap;
use std::rc::Rc;

/// One operand of an access site.
#[derive(Debug, Clone, Copy)]
pub struct SiteOperand {
    /// The operand view whose offset addresses the root.
    pub view: TensorId,
    /// The root tensor the view derives from.
    pub root: TensorId,
    /// The root's memory space.
    pub mem: MemSpace,
    /// The operand is an output.
    pub write: bool,
    /// Bytes per scalar.
    pub bytes_per: u64,
}

/// One undecomposed spec matched to an atomic spec.
#[derive(Debug, Clone)]
pub struct Site {
    /// Child indices from the kernel body down to the spec, through
    /// loop, guard and spec bodies. Sites are in program order, which
    /// is ascending path order.
    pub(crate) path: Vec<u32>,
    /// Enclosing loops as `(var, extent)`, outermost first (shared by
    /// every site of one loop nest).
    pub loops: Rc<[(String, i64)]>,
    /// Product of the enclosing loop extents: how often one block
    /// executes the spec when every guard is taken.
    pub(crate) mult: u64,
    /// Enclosing guards, outermost first.
    pub guards: Vec<Predicate>,
    /// The matched instruction.
    pub(crate) atomic: &'static AtomicSpec,
    /// The innermost (thread-level) exec config.
    pub exec: ThreadId,
    /// Every `threadIdx.x` the exec config covers ([`exec_lanes`]),
    /// shared by every site whose config has the same layouts.
    pub lanes: Rc<[i64]>,
    /// The rendered spec header.
    pub header: String,
    /// Inputs, then outputs.
    pub operands: Vec<SiteOperand>,
}

impl Site {
    /// `base` with every enclosing loop counter bound to iteration 0.
    pub fn env(&self, base: &HashMap<String, i64>) -> HashMap<String, i64> {
        let mut env = base.clone();
        env.extend(self.loops.iter().map(|(v, _)| (v.clone(), 0)));
        env
    }

    /// The spec is a `cp.async` asynchronous copy.
    pub fn cp_async(&self) -> bool {
        self.atomic.name.starts_with("cp.async")
    }
}

/// Every access site of one kernel on one architecture.
#[derive(Debug)]
pub struct Sites {
    /// The architecture the specs were matched against.
    pub(crate) arch: Arch,
    /// The sites, in program order.
    pub sites: Vec<Site>,
    /// Block barriers, each weighted by its enclosing loop extents.
    pub(crate) block_syncs: u64,
    /// The first undecomposed spec that matches no atomic spec: how
    /// many sites precede it, and its header.
    pub(crate) unmatched: Option<(usize, String)>,
}

impl Sites {
    /// Walks `kernel` once, recording every access site.
    pub(crate) fn build(kernel: &Kernel, arch: Arch) -> Sites {
        let mut b = Builder {
            module: &kernel.module,
            reg: registry(arch),
            path: Vec::new(),
            loops: Rc::new([]),
            guards: Vec::new(),
            lanes: HashMap::new(),
            out: Sites { arch, sites: Vec::new(), block_syncs: 0, unmatched: None },
        };
        b.walk(&kernel.body.stmts);
        // The table lives for every pass over the kernel: drop the
        // growth slack.
        b.out.sites.shrink_to_fit();
        b.out
    }

    /// The site at statement path `path` (child indices from the kernel
    /// body, through loop, guard and spec bodies), if that statement is
    /// one.
    pub fn at(&self, path: &[u32]) -> Option<&Site> {
        let i = self.sites.binary_search_by(|s| s.path.as_slice().cmp(path)).ok()?;
        Some(&self.sites[i])
    }
}

struct Builder<'m> {
    module: &'m Module,
    reg: &'static [AtomicSpec],
    path: Vec<u32>,
    loops: Rc<[(String, i64)]>,
    guards: Vec<Predicate>,
    /// Lane lists by exec `(group, local)` layouts.
    lanes: HashMap<(Layout, Layout), Rc<[i64]>>,
    out: Sites,
}

impl Builder<'_> {
    fn mult(&self) -> u64 {
        self.loops.iter().map(|&(_, e)| e as u64).product()
    }

    fn walk(&mut self, stmts: &[Stmt]) {
        for (i, s) in stmts.iter().enumerate() {
            self.path.push(i as u32);
            match s {
                Stmt::For { var, extent, body, .. } => {
                    let outer = Rc::clone(&self.loops);
                    self.loops = outer.iter().cloned().chain([(var.clone(), *extent)]).collect();
                    self.walk(body);
                    self.loops = outer;
                }
                Stmt::If { cond, then } => {
                    self.guards.push(cond.clone());
                    self.walk(then);
                    self.guards.pop();
                }
                Stmt::Spec(spec) => match &spec.body {
                    Some(body) => self.walk(&body.stmts),
                    None => self.site(spec),
                },
                Stmt::Sync(SyncScope::Block) => self.out.block_syncs += self.mult(),
                _ => {}
            }
            self.path.pop();
        }
    }

    fn site(&mut self, spec: &Spec) {
        let module = self.module;
        let header = render_spec_header(module, spec);
        // A match implies a thread-level exec config.
        let (Some(atomic), Some(&exec)) = (match_atomic(spec, module, self.reg), spec.exec.last())
        else {
            self.out.unmatched.get_or_insert((self.out.sites.len(), header));
            return;
        };
        let tt = &module[exec];
        let lanes = self
            .lanes
            .entry((tt.group.clone(), tt.local.clone()))
            .or_insert_with(|| exec_lanes(tt, tt.count() as usize).into());
        let lanes = Rc::clone(lanes);
        let operands = spec
            .ins
            .iter()
            .map(|i| (i, false))
            .chain(spec.outs.iter().map(|o| (o, true)))
            .map(|(&view, write)| {
                let root = module.root_of(view);
                SiteOperand {
                    view,
                    root,
                    mem: module[root].mem,
                    write,
                    bytes_per: module[view].ty.scalar_type().bytes(),
                }
            })
            .collect();
        self.out.sites.push(Site {
            path: self.path.clone(),
            loops: Rc::clone(&self.loops),
            mult: self.mult(),
            guards: self.guards.clone(),
            atomic,
            exec,
            lanes,
            header,
            operands,
        });
    }
}
