//! # asap-ir — a small MLIR-like SSA IR
//!
//! The executable substrate standing in for MLIR's `arith`/`memref`/`scf`
//! dialects in the ASaP reproduction. It provides:
//!
//! - a region-structured SSA IR ([`Function`], [`Op`], [`Region`]) covering
//!   exactly the op set sparsification emits, including `memref.prefetch`;
//! - a closure-based [`FuncBuilder`];
//! - a [`verify()`] pass checking def-before-use, terminators and types;
//! - an MLIR-flavoured [`print_function`] printer for golden tests;
//! - an [`interpret`]er that executes functions against typed [`Buffers`]
//!   and reports every memory access (with a static-op "PC") to a
//!   pluggable [`MemoryModel`] — the hook `asap-sim` attaches to;
//! - transforms: [`licm`] (needed so ASaP's hoistable bound chain really is
//!   hoisted, as the paper assumes) and [`dce`].

pub mod budget;
pub mod builder;
pub mod bytecode;
pub mod cse;
pub mod diag;
pub mod exec;
pub mod fold;
pub mod interp;
mod mem;
pub mod ops;
pub mod printer;
pub mod profile;
pub mod tier2;
pub mod trace;
pub mod transforms;
pub mod types;
pub mod verify;

pub use budget::{total_polls, Budget, BudgetError, BudgetMeter, CancelToken, Resource};
pub use builder::FuncBuilder;
pub use bytecode::{lower, Instr, LowerError, Program};
pub use cse::cse;
pub use diag::AsapError;
pub use exec::{execute, execute_budgeted, execute_budgeted_profiled};
pub use fold::fold;
pub use interp::{interpret, interpret_budgeted};
pub use mem::{
    AccessKind, Buffer, BufferData, Buffers, CountingModel, InterpError, MemoryModel, NullModel, V,
};
pub use ops::{BinOp, CmpPred, Function, Op, OpId, OpKind, Region, Value};
pub use printer::print_function;
pub use profile::{ExecProfile, NUM_OPCODES, OPCODE_NAMES};
pub use tier2::{SpmmPlan, SpmvPlan, Tier2Plan};
pub use trace::{TraceEvent, TraceModel};
pub use transforms::{dce, licm};
pub use types::{Literal, Type};
pub use verify::{verify, VerifyError};
