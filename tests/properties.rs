//! Property-based tests spanning the workspace: random stream programs
//! are generated, flattened, steady-state-solved, scheduled, and executed
//! on both the CPU reference and the simulated GPU — the fundamental
//! invariant being that every path preserves the sequential stream
//! semantics bit-for-bit.

use gpusim::{DeviceConfig, TimingModel};
use proptest::prelude::*;
use streamir::cpu::{self, CpuCostModel};
use streamir::graph::{FilterSpec, NodeId, SplitterKind, StreamSpec};
use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar, Stmt, Table, WorkFunction};
use swpipe::exec::{self, CompileOptions, Scheme};
use swpipe::instances::{self, ExecConfig};
use swpipe::profile::{self, ProfileMemo, ProfileOptions};
use swpipe::schedule::{self, SchedulerKind, SearchOptions};
use swpipe::serve::ServeOptions;

/// A random arithmetic map filter with the given pop/push rates.
fn rate_filter(name: String, pop: u32, push: u32, seed: i32) -> StreamSpec {
    let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let acc = f.local(ElemTy::I32);
    let x = f.local(ElemTy::I32);
    f.assign(acc, Expr::i32(seed));
    f.for_loop(0, pop as i32, |_, _| {
        vec![
            Stmt::Pop {
                port: 0,
                dst: Some(x),
            },
            Stmt::Assign(acc, Expr::local(acc).mul(Expr::i32(3)).add(Expr::local(x))),
        ]
    });
    f.for_loop(0, push as i32, |_, j| {
        vec![Stmt::Push {
            port: 0,
            value: Expr::local(acc).add(Expr::local(j).mul(Expr::i32(seed | 1))),
        }]
    });
    StreamSpec::filter(FilterSpec::new(name, f.build().expect("valid")))
}

/// Strategy: a random pipeline / split-join composition, depth <= 2.
fn stream_strategy() -> impl Strategy<Value = StreamSpec> {
    let leaf = (1u32..4, 1u32..4, -3i32..4).prop_map(|(pop, push, seed)| {
        rate_filter(format!("f{pop}_{push}_{seed}"), pop, push, seed)
    });
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(StreamSpec::pipeline),
            // Branches must share an aggregate push/pop ratio for the
            // balance equations to be consistent; replicate one branch
            // shape (the flattener disambiguates filter names).
            (inner, 2usize..4, 1u32..3).prop_map(|(branch, n, w)| {
                StreamSpec::split_join(
                    SplitterKind::round_robin_uniform(n, w),
                    vec![branch; n],
                    vec![w; n],
                )
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any well-formed composition flattens, solves, and balances: for
    /// every channel, producer tokens equal consumer tokens per iteration.
    #[test]
    fn steady_state_balances(spec in stream_strategy()) {
        let g = spec.flatten().expect("flattens");
        let s = streamir::sdf::solve(&g).expect("solves");
        for (i, e) in g.edges().iter().enumerate() {
            let eid = streamir::graph::EdgeId(i as u32);
            let produced = u64::from(s.reps(e.src)) * u64::from(g.push_rate(eid));
            let consumed = u64::from(s.reps(e.dst)) * u64::from(g.pop_rate(eid));
            prop_assert_eq!(produced, consumed);
        }
    }

    /// The heuristic scheduler always produces a validator-clean schedule,
    /// whatever the graph shape.
    #[test]
    fn heuristic_schedules_validate(spec in stream_strategy(), sms in 1u32..5) {
        let g = spec.flatten().expect("flattens");
        let cfg = ExecConfig::uniform(g.len(), 4, 16, 10);
        let ig = instances::build(&g, &cfg).expect("builds");
        let (sched, _) = schedule::find(
            &ig,
            &cfg,
            sms,
            &SearchOptions { scheduler: SchedulerKind::Heuristic, ..SearchOptions::default() },
        ).expect("schedules");
        schedule::validate(&ig, &cfg, &sched, sms, 16).expect("validates");
    }

    /// CPU executor and GPU simulator agree bit-for-bit on random graphs
    /// through the full compile-and-execute pipeline.
    #[test]
    fn gpu_matches_cpu_on_random_graphs(spec in stream_strategy()) {
        let g = spec.flatten().expect("flattens");
        let compiled = match exec::compile(&g, &CompileOptions::small_test()) {
            Ok(c) => c,
            Err(e) => return Err(TestCaseError::fail(format!("compile: {e}"))),
        };
        let iters = 2u64;
        let n_input = exec::required_input(&compiled, iters);
        let steady = streamir::sdf::solve(&g).expect("solves");
        let per = steady.input_tokens_per_iteration(&g).max(1);
        let input: Vec<Scalar> = (0..n_input + 2 * per)
            .map(|i| Scalar::I32((i as i32).wrapping_mul(7) % 1000 - 500))
            .collect();
        let gpu = exec::execute(&compiled, Scheme::Swp { coarsening: 1 }, iters,
                                &input[..n_input as usize]).expect("executes");
        let cpu_iters = (n_input.saturating_sub(steady.input_tokens_for_init(&g)))
            .div_ceil(per) + 1;
        let cpu = cpu::run(&g, &steady, cpu_iters, &input, &CpuCostModel::default())
            .expect("cpu runs");
        prop_assert!(gpu.outputs.len() <= cpu.outputs.len());
        prop_assert_eq!(&gpu.outputs[..], &cpu.outputs[..gpu.outputs.len()]);
    }

    /// The GPU's warp-synchronous evaluator agrees bit-for-bit with the
    /// reference interpreter on randomly generated work functions (random
    /// expression shapes, loops, divergent branches).
    #[test]
    fn warp_interpreter_matches_reference(
        seed in 0i32..1000,
        pop in 1u32..5,
        push in 1u32..5,
        taps in 0i32..6,
    ) {
        use gpusim::{BlockWork, BufferBinding, DeviceConfig, Gpu, InstanceExec,
                     Launch, Layout};
        use streamir::ir::interp::{self, VecChannels};
        use streamir::ir::OpCensus;

        // A filter mixing arithmetic, a peeking loop, and a divergent branch.
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let acc = f.local(ElemTy::I32);
        let x = f.local(ElemTy::I32);
        f.assign(acc, Expr::i32(seed));
        f.for_loop(0, taps, |_, j| {
            vec![Stmt::Assign(
                acc,
                Expr::local(acc)
                    .mul(Expr::i32(5))
                    .add(Expr::peek(0, Expr::local(j).rem(Expr::i32(pop as i32)))),
            )]
        });
        f.for_loop(0, pop as i32, |_, _| {
            vec![
                Stmt::Pop { port: 0, dst: Some(x) },
                Stmt::Assign(acc, Expr::local(acc).bitxor(Expr::local(x))),
            ]
        });
        f.if_else(
            Expr::local(acc).rem(Expr::i32(2)).eq(Expr::i32(0)),
            vec![Stmt::Assign(acc, Expr::local(acc).shr(Expr::i32(1)))],
            vec![Stmt::Assign(acc, Expr::local(acc).mul(Expr::i32(3)).add(Expr::i32(1)))],
        );
        f.for_loop(0, push as i32, |_, j| {
            vec![Stmt::Push {
                port: 0,
                value: Expr::local(acc).add(Expr::local(j)),
            }]
        });
        let wf = f.build().expect("valid");

        let threads = 32u32;
        let in_tokens = threads * pop;
        let out_tokens = threads * push;
        let inputs: Vec<Scalar> = (0..in_tokens)
            .map(|i| Scalar::I32((i as i32).wrapping_mul(2654435761u32 as i32) >> 8))
            .collect();

        // Reference: thread t consumes [t*pop, (t+1)*pop).
        let mut expect = Vec::new();
        for t in 0..threads {
            let window = inputs[(t * pop) as usize..((t + 1) * pop) as usize].to_vec();
            let mut ch = VecChannels::new(vec![window], 1);
            let mut counts = OpCensus::default();
            interp::execute(&wf, &mut ch, &mut counts).expect("reference runs");
            expect.extend(ch.outputs[0].clone());
        }

        // GPU: one warp over a sequential buffer.
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let inp = gpu.alloc_tokens(in_tokens);
        let out = gpu.alloc_tokens(out_tokens);
        for (i, &v) in inputs.iter().enumerate() {
            gpu.memory_mut().write_token(inp + i as u32, v);
        }
        let launch = Launch {
            threads_per_block: threads,
            regs_per_thread: 32,
            blocks: vec![BlockWork {
                items: vec![InstanceExec {
                    work: &wf,
                    active_threads: threads,
                    inputs: vec![BufferBinding::whole(inp, in_tokens, ElemTy::I32, Layout::Sequential, pop)],
                    outputs: vec![BufferBinding::whole(out, out_tokens, ElemTy::I32, Layout::Sequential, push)],
                    shared_staging: false,
                    state_base: None,
                    label: None,
                }],
            }],
            sm_offset: 0,
        };
        gpu.run(&launch).expect("gpu runs");
        for (i, &e) in expect.iter().enumerate() {
            let got = gpu.memory().read_token(out + i as u32, ElemTy::I32);
            prop_assert_eq!(got, e, "token {}", i);
        }
    }

    /// Buffer bindings are bijective: over one region, every (lane, token)
    /// pair of the consumer maps to a distinct in-range address.
    #[test]
    fn transposed_binding_is_injective(
        rate in 1u32..9,
        firings in 1u64..40,
    ) {
        use gpusim::{BufferBinding, Layout};
        let region = u64::from(rate) * firings;
        let b = BufferBinding {
            base_word: 0,
            region_tokens: region,
            regions: 1,
            layout: Layout::Transposed { group: 16 },
            consumer_rate: rate,
            endpoint_rate: rate,
            abs_start: 0,
        };
        let mut seen = std::collections::HashSet::new();
        for lane in 0..firings as u32 {
            for n in 0..u64::from(rate) {
                let a = b.addr(lane, n);
                prop_assert!(a < region, "addr {a} outside region {region}");
                prop_assert!(seen.insert(a), "duplicate address {a}");
            }
        }
    }
}

/// A random (possibly branching, peeking, array/table-using) work
/// function for the validator-vs-interpreter agreement property below.
#[allow(clippy::too_many_arguments)]
fn random_work(
    pop: u32,
    push: u32,
    peek_extra: u32,
    use_array: bool,
    use_table: bool,
    branch: u8,
    seed: i32,
) -> streamir::ir::WorkFunction {
    use streamir::ir::Table;
    let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
    let acc = f.local(ElemTy::I32);
    let x = f.local(ElemTy::I32);
    f.assign(acc, Expr::i32(seed));
    let arr = use_array.then(|| f.array(ElemTy::I32, 4));
    let tab = use_table.then(|| f.table(Table::i32(&[2, 3, 5, 7])));
    for d in 0..peek_extra {
        f.assign(
            acc,
            Expr::local(acc).add(Expr::peek(0, Expr::i32(d as i32))),
        );
    }
    f.for_loop(0, pop as i32, |_, _| {
        vec![
            Stmt::Pop {
                port: 0,
                dst: Some(x),
            },
            Stmt::Assign(acc, Expr::local(acc).mul(Expr::i32(3)).add(Expr::local(x))),
        ]
    });
    if let Some(a) = arr {
        f.store(a, Expr::i32(1), Expr::local(acc));
        f.assign(acc, Expr::local(acc).add(Expr::load(a, Expr::i32(1))));
    }
    if let Some(t) = tab {
        f.assign(acc, Expr::local(acc).add(Expr::table(t, Expr::i32(2))));
    }
    match branch {
        // A constant branch: still a branch to the validator.
        1 => {
            f.if_else(
                Expr::i32(1),
                vec![Stmt::Assign(acc, Expr::local(acc).add(Expr::i32(1)))],
                vec![],
            );
        }
        // A data-dependent branch with asymmetric arms, so the static
        // worst-case census strictly dominates one dynamic path.
        2 => {
            f.if_else(
                Expr::local(acc).lt(Expr::i32(0)),
                vec![Stmt::Assign(acc, Expr::local(acc).neg())],
                vec![
                    Stmt::Assign(acc, Expr::local(acc).add(Expr::i32(5))),
                    Stmt::Assign(x, Expr::local(acc).mul(Expr::i32(2))),
                ],
            );
        }
        _ => {}
    }
    f.for_loop(0, push as i32, |_, j| {
        vec![Stmt::Push {
            port: 0,
            value: Expr::local(acc).add(Expr::local(j)),
        }]
    });
    f.build().expect("generated work function validates")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The validator's static channel rates equal the interpreter's
    /// dynamic pop/push counts, and its op census equals the dynamic
    /// operation counts exactly on branch-free bodies (and dominates
    /// them per class when the body branches).
    #[test]
    fn static_rates_and_census_agree_with_dynamic_execution(
        pop in 1u32..4,
        push in 1u32..4,
        peek_extra in 0u32..4,
        array_sel in 0u8..2,
        table_sel in 0u8..2,
        branch in 0u8..3,
        seed in -10i32..10,
    ) {
        use streamir::ir::{interp, OpCensus};
        let wf = random_work(pop, push, peek_extra, array_sel == 1, table_sel == 1, branch, seed);
        let info = wf.info().clone();

        let supply = (pop.max(peek_extra) + 4) as usize;
        let tokens: Vec<Scalar> = (0..supply).map(|i| Scalar::I32(i as i32 - 3)).collect();
        let mut ch = interp::VecChannels::new(vec![tokens], 1);
        let mut counts = OpCensus::default();
        interp::execute(&wf, &mut ch, &mut counts).expect("firing runs");

        // Static rates = dynamic consumption/production.
        prop_assert_eq!(ch.cursors[0] as u32, info.inputs[0].pop);
        prop_assert_eq!(ch.cursors[0] as u32, wf.pop_rate(0));
        prop_assert_eq!(ch.outputs[0].len() as u32, info.outputs[0]);
        prop_assert_eq!(wf.push_rate(0), info.outputs[0]);
        prop_assert_eq!(wf.peek_rate(0), pop.max(peek_extra));
        prop_assert_eq!(wf.is_peeking(), peek_extra > pop);
        prop_assert_eq!(info.has_branches, branch != 0);

        // Static census: exact without branches, a per-class upper bound
        // (worst case over arms) with them.
        if info.has_branches {
            prop_assert!(counts.alu <= info.census.alu);
            prop_assert!(counts.transcendental <= info.census.transcendental);
            prop_assert!(counts.channel_reads <= info.census.channel_reads);
            prop_assert!(counts.channel_writes <= info.census.channel_writes);
            prop_assert!(counts.array_ops <= info.census.array_ops);
            prop_assert!(counts.table_loads <= info.census.table_loads);
            prop_assert!(counts.control <= info.census.control);
            // Channel traffic is rate-static even under branches.
            prop_assert_eq!(counts.channel_reads, info.census.channel_reads);
            prop_assert_eq!(counts.channel_writes, info.census.channel_writes);
        } else {
            prop_assert_eq!(&counts, &info.census);
        }
    }
}

/// A profile table as raw bits, so equality is bit-for-bit.
fn table_bits(t: &profile::ProfileTable) -> Vec<Vec<Vec<Option<u64>>>> {
    t.times
        .iter()
        .map(|node| {
            node.iter()
                .map(|row| row.iter().map(|c| c.map(f64::to_bits)).collect())
                .collect()
        })
        .collect()
}

/// The profile memo's soundness contract: for every suite benchmark and
/// every grid the compiler profiles with (the serving grid and the
/// paper's coalesced and uncoalesced grids), a memoized table equals a
/// naive per-node, per-point simulation at 16 SMs bit for bit, at every
/// SM count serving compiles for. One memo per (grid, SM count) spans
/// the whole suite, so each distinct work function is simulated once
/// per SM count and reused across nodes and benchmarks. The memo key
/// leaves `num_sms` out; this pins that a measurement cannot depend on
/// it.
#[test]
fn memoized_profiles_equal_naive_per_node_profiles() {
    let timing = TimingModel::gts512();
    let device = |num_sms| DeviceConfig {
        num_sms,
        ..DeviceConfig::gts512()
    };
    let sm_counts = [1, 2, 3, 4, 5, 16];
    let grids = [
        ServeOptions::default().profile,
        ProfileOptions::paper(),
        ProfileOptions::paper_no_coalesce(),
    ];
    let suite: Vec<_> = streambench::suite()
        .iter()
        .map(|b| (b.name, b.spec.flatten().unwrap()))
        .collect();
    for grid in &grids {
        let memos: Vec<ProfileMemo> = sm_counts.iter().map(|_| ProfileMemo::default()).collect();
        for (name, g) in &suite {
            let naive: Vec<Vec<Vec<Option<u64>>>> = (0..g.len())
                .map(|n| {
                    grid.reg_limits
                        .iter()
                        .map(|&regs| {
                            grid.thread_counts
                                .iter()
                                .map(|&threads| {
                                    profile::profile_point(
                                        g,
                                        NodeId(n as u32),
                                        regs,
                                        threads,
                                        grid,
                                        &device(16),
                                        &timing,
                                    )
                                    .unwrap()
                                    .map(f64::to_bits)
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect();
            for (&num_sms, memo) in sm_counts.iter().zip(&memos) {
                let table =
                    profile::profile_memoized(g, grid, &device(num_sms), &timing, memo).unwrap();
                assert_eq!(
                    table_bits(&table),
                    naive,
                    "{name} at {num_sms} SMs, grid {grid:?}"
                );
            }
        }
        // Duplicate filters were merged: fewer points than nodes × grid.
        let nodes: usize = suite.iter().map(|(_, g)| g.len()).sum();
        let per_node = grid.reg_limits.len() * grid.thread_counts.len();
        assert!(memos[0].len() < nodes * per_node, "grid {grid:?}");
    }
}

/// Two work functions that differ only in one table value, or only in
/// one state initializer, must never share a memo key (the printed form
/// `to_pretty` shows a table as `[ty; len]` and would merge them).
#[test]
fn profile_point_keys_see_table_values_and_state_inits() {
    let with = |table: &[i32], init: i32| {
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let t = f.table(Table::i32(table));
        let s = f.state(ElemTy::I32, Scalar::I32(init));
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        f.store_state(s, Expr::state(s).add(Expr::local(x)));
        f.push(0, Expr::state(s).mul(Expr::table(t, Expr::i32(0))));
        f.build().unwrap()
    };
    let opts = ProfileOptions::paper();
    let device = DeviceConfig::gts512();
    let timing = TimingModel::gts512();
    let key = |w: &WorkFunction| profile::point_key(w, 16, 128, &opts, &device, &timing);
    let base = with(&[2, 3], 0);
    assert_eq!(base.to_pretty(), with(&[2, 4], 0).to_pretty());
    assert_eq!(key(&base), key(&with(&[2, 3], 0)));
    assert_ne!(key(&base), key(&with(&[2, 4], 0)), "table value");
    assert_ne!(key(&base), key(&with(&[2, 3], 1)), "state init");
    // The point, the buffer regime and the timing model are part of
    // the key; the SM count is not.
    assert_ne!(
        key(&base),
        profile::point_key(&base, 32, 128, &opts, &device, &timing)
    );
    assert_ne!(
        key(&base),
        profile::point_key(
            &base,
            16,
            128,
            &ProfileOptions::paper_no_coalesce(),
            &device,
            &timing
        )
    );
    let slower = TimingModel {
        mem_latency: 500.0,
        ..TimingModel::gts512()
    };
    assert_ne!(
        key(&base),
        profile::point_key(&base, 16, 128, &opts, &device, &slower)
    );
    let narrow = DeviceConfig {
        num_sms: 3,
        ..DeviceConfig::gts512()
    };
    assert_eq!(
        key(&base),
        profile::point_key(&base, 16, 128, &opts, &narrow, &timing)
    );
}
