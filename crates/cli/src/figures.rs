//! Drivers for the paper's Figures 2–10.

use std::collections::BTreeMap;

use fsp_core::{BitSampler, PredBitPolicy, PruningConfig, PruningPipeline, ThreadGrouping};
use fsp_inject::{Experiment, FaultSite, InjectionTarget, WeightedSite};
use fsp_isa::{Dest, Register};
use fsp_stats::{FiveNumber, ResilienceProfile};
use fsp_workloads::{Scale, Workload};

use crate::output::Table;
use crate::tables::{full_space, trace, trace_with_reps};
use crate::Options;

/// Figure 2 — CTA grouping from injection-outcome distributions, using
/// the library's [`fsp_core::OutcomeGrouping`] (the paper's ground-truth
/// classifier) and quantifying agreement with the iCnt classifier.
#[must_use]
pub fn fig2(opts: &Options) -> String {
    use fsp_core::OutcomeGrouping;
    let mut out = String::from(
        "Figure 2: CTA grouping from fault-injection outcomes at one target instruction\n\n",
    );
    for id in ["2dconv", "hotspot"] {
        let w = fsp_workloads::by_id(id, Scale::Eval).expect("registered");
        let (experiment, space) = full_space(&w);
        let pc = OutcomeGrouping::default_target_pc(&space);
        let grouping = OutcomeGrouping::analyze(&experiment, &space, pc, 2.0, opts.workers);
        let mut t = Table::new(&["CTA", "min", "q1", "median", "q3", "max", "mean masked%"]);
        for (cta, (f, mean)) in grouping
            .distributions
            .iter()
            .zip(&grouping.means)
            .enumerate()
        {
            t.row(vec![
                cta.to_string(),
                format!("{:.1}", f.min),
                format!("{:.1}", f.q1),
                format!("{:.1}", f.median),
                format!("{:.1}", f.q3),
                format!("{:.1}", f.max),
                format!("{mean:.1}"),
            ]);
        }
        // Quantify the paper's Fig. 2 / Fig. 3 claim: the outcome-based
        // grouping agrees with the pure-iCnt grouping.
        let icnt_grouping = ThreadGrouping::analyze(space.trace());
        let n = space.trace().num_ctas() as usize;
        let by_icnt = fsp_stats::labels_from_groups(
            &icnt_grouping
                .groups
                .iter()
                .map(|g| g.ctas.clone())
                .collect::<Vec<_>>(),
            n,
        );
        let agreement = fsp_stats::rand_index(&grouping.labels(), &by_icnt);
        // The iCnt classifier may be *finer* than the outcome grouping
        // (splitting CTAs whose outcomes coincide is harmless - it only
        // costs extra representatives). What must never happen is the
        // reverse: two CTAs sharing an iCnt group but differing in
        // outcomes.
        let outcome_labels = grouping.labels();
        let refines = (0..n).all(|i| {
            (0..n).all(|j| by_icnt[i] != by_icnt[j] || outcome_labels[i] == outcome_labels[j])
        });
        out.push_str(&format!(
            "{} (target pc {pc}):\n{t}\nOutcome-based CTA groups: {:?}\n\
             Rand index vs iCnt grouping (Fig. 3): {agreement:.3}; \
             iCnt grouping refines outcome grouping: {refines}\n\n",
            w.app(),
            grouping.groups,
        ));
    }
    out
}

/// Figure 3 — CTA grouping from per-CTA iCnt distributions, checked
/// against the iCnt classifier.
#[must_use]
pub fn fig3(_opts: &Options) -> String {
    let mut out = String::from(
        "Figure 3: CTA grouping from per-thread dynamic instruction counts (iCnt)\n\n",
    );
    for id in ["2dconv", "hotspot"] {
        let w = fsp_workloads::by_id(id, Scale::Eval).expect("registered");
        let trace = trace(&w, std::iter::empty());
        let grouping = ThreadGrouping::analyze(&trace);
        let mut t = Table::new(&["CTA", "min", "q1", "median", "q3", "max", "mean iCnt"]);
        for cta in 0..trace.num_ctas() {
            let icnts: Vec<f64> = trace
                .cta_threads(cta)
                .map(|tid| f64::from(trace.icnt[tid as usize]))
                .collect();
            let f = FiveNumber::of(&icnts);
            t.row(vec![
                cta.to_string(),
                format!("{:.0}", f.min),
                format!("{:.0}", f.q1),
                format!("{:.0}", f.median),
                format!("{:.0}", f.q3),
                format!("{:.0}", f.max),
                format!("{:.1}", f.mean),
            ]);
        }
        let groups: Vec<Vec<u32>> = grouping.groups.iter().map(|g| g.ctas.clone()).collect();
        out.push_str(&format!(
            "{}:\n{t}\niCnt-based CTA groups: {groups:?}\n\n",
            w.app()
        ));
    }
    out
}

/// Figure 4 — per-thread masked% vs iCnt inside one CTA.
#[must_use]
pub fn fig4(opts: &Options) -> String {
    let mut out =
        String::from("Figure 4: thread grouping inside one CTA (masked% tracks iCnt)\n\n");
    for id in ["2dconv", "hotspot"] {
        let w = fsp_workloads::by_id(id, Scale::Eval).expect("registered");
        let (experiment, space) = full_space(&w);
        let trace = space.trace();
        // A CTA with iCnt diversity: the one whose thread iCnts span widest.
        let cta = (0..trace.num_ctas())
            .max_by_key(|&c| {
                let range = trace.cta_threads(c);
                let (mut lo, mut hi) = (u32::MAX, 0);
                for t in range {
                    lo = lo.min(trace.icnt[t as usize]);
                    hi = hi.max(trace.icnt[t as usize]);
                }
                hi - lo
            })
            .expect("at least one CTA");
        // Bit-sample each thread's sites to keep the campaign tractable.
        let sampler = BitSampler {
            samples_per_32: 8,
            pred_policy: PredBitPolicy::All,
        };
        let program = w.launch();
        let mut rows: Vec<(u32, u32, f64)> = Vec::new();
        for tid in trace.cta_threads(cta) {
            let full = &trace.full[tid];
            let mut sites = Vec::new();
            for (i, e) in full.entries.iter().enumerate() {
                let instr = program.program().instr(e.pc as usize);
                for sel in sampler.select_instruction(instr) {
                    for &bit in &sel.bits {
                        sites.push(WeightedSite::from(FaultSite {
                            tid,
                            dyn_idx: i as u32,
                            bit,
                        }));
                    }
                }
            }
            let masked = if sites.is_empty() {
                100.0
            } else {
                experiment
                    .run_campaign(&sites, opts.workers)
                    .profile
                    .pct_masked()
            };
            rows.push((tid, trace.icnt[tid as usize], masked));
        }
        let mut t = Table::new(&["thread", "iCnt", "masked%"]);
        for (tid, icnt, masked) in &rows {
            t.row(vec![
                tid.to_string(),
                icnt.to_string(),
                format!("{masked:.1}"),
            ]);
        }
        // Verify the claim: same iCnt => similar masked%.
        let mut by_icnt: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for (_, icnt, masked) in &rows {
            by_icnt.entry(*icnt).or_default().push(*masked);
        }
        let max_spread = by_icnt
            .values()
            .map(|v| {
                let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                hi - lo
            })
            .fold(0.0, f64::max);
        out.push_str(&format!(
            "{} (CTA {cta}):\n{t}\nmax masked%-spread within an iCnt group: {max_spread:.1}%\n\n",
            w.app()
        ));
    }
    out
}

/// Figure 5 — PTXPlus trace alignment of two PathFinder representatives.
#[must_use]
pub fn fig5(_opts: &Options) -> String {
    let w = fsp_workloads::by_id("pathfinder", Scale::Eval).expect("registered");
    let (trace, grouping) = trace_with_reps(&w);
    let mut reps: Vec<u32> = grouping
        .representatives(&trace)
        .iter()
        .map(|r| r.tid)
        .collect();
    reps.sort_by_key(|tid| std::cmp::Reverse(trace.full[*tid].entries.len()));
    let (a, b) = (reps[0], reps[1]);
    let (ta, tb) = (&trace.full[a], &trace.full[b]);
    let alignment = fsp_core::align_lcs(&ta.pcs(), &tb.pcs());
    let matched_a: std::collections::BTreeSet<u32> =
        alignment.pairs.iter().map(|&(x, _)| x).collect();

    let program = w.launch();
    let mut out = format!(
        "Figure 5: PTXPlus trace comparison of two PathFinder representatives\n\
         thread a (tid {a}, iCnt {}), thread b (tid {b}, iCnt {}), common {}\n\n\
         thread a's dynamic instructions (| = common with b, * = a only):\n",
        ta.entries.len(),
        tb.entries.len(),
        alignment.pairs.len()
    );
    // Print the interesting window: 4 instructions around each transition.
    let mut last_state = None;
    let mut elided = 0usize;
    for (i, e) in ta.entries.iter().enumerate() {
        let common = matched_a.contains(&(i as u32));
        let boundary = last_state != Some(common)
            || ta
                .entries
                .get(i + 1)
                .is_some_and(|_| matched_a.contains(&(i as u32 + 1)) != common);
        if boundary || i < 3 || i + 3 >= ta.entries.len() {
            if elided > 0 {
                out.push_str(&format!("      ... {elided} more ...\n"));
                elided = 0;
            }
            let marker = if common { '|' } else { '*' };
            out.push_str(&format!(
                "  {marker} {i:4}  {}\n",
                program.program().instr(e.pc as usize)
            ));
        } else {
            elided += 1;
        }
        last_state = Some(common);
    }
    if elided > 0 {
        out.push_str(&format!("      ... {elided} more ...\n"));
    }
    out
}

/// Figure 6 — outcome distribution vs number of sampled loop iterations.
#[must_use]
pub fn fig6(opts: &Options) -> String {
    let mut out =
        String::from("Figure 6: impact of loop-wise pruning on the outcome distribution\n\n");
    let cases: [(&str, u64); 4] = [
        ("pathfinder", 0),
        ("syrk", 0),
        ("kmeans_k1", 0),
        ("kmeans_k1", 1),
    ];
    for (id, seed_offset) in cases {
        let w = fsp_workloads::by_id(id, Scale::Eval).expect("registered");
        let experiment = Experiment::prepare(&w).expect("workload runs");
        let mut t = Table::new(&["#iterations", "masked%", "sdc%", "other%", "#runs"]);
        for num_iter in [1usize, 2, 3, 4, 6, 8, 10, 15] {
            let pipeline = PruningPipeline::new(PruningConfig {
                loop_samples: num_iter,
                loop_seed: opts.seed.wrapping_add(seed_offset),
                ..PruningConfig::default()
            });
            let plan = pipeline.plan_for(&experiment).expect("plan");
            let profile = pipeline.run(&experiment, &plan, opts.workers);
            t.row(vec![
                num_iter.to_string(),
                format!("{:.1}", profile.pct_masked()),
                format!("{:.1}", profile.pct_sdc()),
                format!("{:.1}", profile.pct_other()),
                plan.sites.len().to_string(),
            ]);
        }
        out.push_str(&format!(
            "{} {} (loop seed +{seed_offset}):\n{t}\n",
            w.app(),
            w.id()
        ));
    }
    out
}

/// Figure 7 — outcome distribution by bit-position section and register
/// type.
#[must_use]
pub fn fig7(opts: &Options) -> String {
    let mut out =
        String::from("Figure 7: outcome distribution by bit-position section (.u32 vs .pred)\n\n");
    for id in ["2dconv", "mvt"] {
        let w = fsp_workloads::by_id(id, Scale::Eval).expect("registered");
        let (experiment, space) = full_space(&w);
        let trace = space.trace();
        let program = w.launch();
        // Partition each thread's sites by (register class, bit section).
        let mut buckets: BTreeMap<(bool, u32), Vec<FaultSite>> = BTreeMap::new();
        for (tid, full) in trace.full.iter() {
            for (i, e) in full.entries.iter().enumerate() {
                let instr = program.program().instr(e.pc as usize);
                let mut offset = 0u32;
                for dest in instr.dests() {
                    let Dest::Reg(reg) = dest else { continue };
                    if reg.is_discard() {
                        continue;
                    }
                    let width = instr.register_dest_bits(*reg);
                    let is_pred = matches!(reg, Register::Pred(_));
                    for bit in 0..width {
                        let section = if is_pred { bit } else { bit / 8 };
                        buckets
                            .entry((is_pred, section))
                            .or_default()
                            .push(FaultSite {
                                tid,
                                dyn_idx: i as u32,
                                bit: offset + bit,
                            });
                    }
                    offset += width;
                }
            }
        }
        let mut t = Table::new(&["reg type", "bits", "masked%", "sdc%", "other%", "n"]);
        let per_bucket = if opts.quick { 150 } else { 400 };
        for ((is_pred, section), sites) in &buckets {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed + u64::from(*section));
            let sample: Vec<WeightedSite> = sites
                .choose_multiple(&mut rng, per_bucket.min(sites.len()))
                .map(|&s| WeightedSite::from(s))
                .collect();
            let profile = experiment.run_campaign(&sample, opts.workers).profile;
            let label = if *is_pred {
                format!("{section}")
            } else {
                format!("{}-{}", section * 8, section * 8 + 7)
            };
            t.row(vec![
                if *is_pred { ".pred" } else { ".u32" }.to_owned(),
                label,
                format!("{:.1}", profile.pct_masked()),
                format!("{:.1}", profile.pct_sdc()),
                format!("{:.1}", profile.pct_other()),
                sample.len().to_string(),
            ]);
        }
        out.push_str(&format!("{}:\n{t}\n", w.app()));
    }
    out
}

/// Figure 8 — outcome distribution vs number of sampled bit positions.
#[must_use]
pub fn fig8(opts: &Options) -> String {
    let mut out =
        String::from("Figure 8: impact of bit-wise pruning on the outcome distribution\n\n");
    for id in ["2dconv", "mvt"] {
        let w = fsp_workloads::by_id(id, Scale::Eval).expect("registered");
        let experiment = Experiment::prepare(&w).expect("workload runs");
        let mut t = Table::new(&["#sampled bits", "masked%", "sdc%", "#runs"]);
        for samples in [4u32, 8, 16, 0] {
            let pipeline = PruningPipeline::new(PruningConfig {
                bits: BitSampler {
                    samples_per_32: samples,
                    pred_policy: PredBitPolicy::All,
                },
                ..PruningConfig::default()
            });
            let plan = pipeline.plan_for(&experiment).expect("plan");
            let profile = pipeline.run(&experiment, &plan, opts.workers);
            t.row(vec![
                if samples == 0 {
                    "all".to_owned()
                } else {
                    samples.to_string()
                },
                format!("{:.1}", profile.pct_masked()),
                format!("{:.1}", profile.pct_sdc()),
                plan.sites.len().to_string(),
            ]);
        }
        out.push_str(&format!("{}:\n{t}\n", w.app()));
    }
    out
}

/// Runs one kernel's pruned campaign and baseline, returning
/// `(plan sites, pruned profile, baseline profile)`.
fn prune_vs_baseline(
    w: &Workload,
    opts: &Options,
) -> (usize, ResilienceProfile, ResilienceProfile) {
    let experiment = Experiment::prepare(w).expect("workload runs");
    let pipeline = PruningPipeline::new(PruningConfig::default());
    let plan = pipeline.plan_for(&experiment).expect("plan");
    let pruned = pipeline.run(&experiment, &plan, opts.workers);
    let space = experiment.site_space(0..w.launch().num_threads());
    let baseline = fsp_core::run_baseline(
        &experiment,
        &space,
        opts.baseline_samples(),
        opts.seed,
        opts.workers,
    );
    (plan.sites.len(), pruned, baseline)
}

/// Figure 9 — error-resilience comparison: progressive pruning vs the
/// statistical baseline, across all Table I kernels.
#[must_use]
pub fn fig9(opts: &Options) -> String {
    let mut t = Table::new(&[
        "Kernel",
        "pruned msk/sdc/other",
        "baseline msk/sdc/other",
        "Δmsk",
        "Δsdc",
        "Δother",
        "#runs",
    ]);
    let mut sums = (0.0f64, 0.0f64, 0.0f64);
    let mut n = 0;
    for w in fsp_workloads::all(Scale::Eval) {
        if w.paper_reference().is_none() {
            continue; // NN is not part of the paper's injection evaluation
        }
        let (runs, pruned, baseline) = prune_vs_baseline(&w, opts);
        let (dm, ds, do_) = pruned.diff(&baseline);
        sums.0 += dm.abs();
        sums.1 += ds.abs();
        sums.2 += do_.abs();
        n += 1;
        let fmt = |p: &ResilienceProfile| {
            format!(
                "{:5.1}/{:5.1}/{:5.1}",
                p.pct_masked(),
                p.pct_sdc(),
                p.pct_other()
            )
        };
        t.row(vec![
            format!("{} {}", w.app(), w.id()),
            fmt(&pruned),
            fmt(&baseline),
            format!("{dm:+.2}"),
            format!("{ds:+.2}"),
            format!("{do_:+.2}"),
            runs.to_string(),
        ]);
    }
    format!(
        "Figure 9: pruned vs baseline resilience profiles ({} baseline runs per kernel)\n\n{t}\n\
         Mean |Δ|: masked {:.2}%, sdc {:.2}%, other {:.2}%\n",
        opts.baseline_samples(),
        sums.0 / f64::from(n),
        sums.1 / f64::from(n),
        sums.2 / f64::from(n),
    )
}

/// Figure 10 — per-stage fault-site reduction at paper scale.
#[must_use]
pub fn fig10(opts: &Options) -> String {
    let mut t = Table::new(&[
        "Kernel",
        "exhaustive",
        "static-ACE",
        "+thread-wise",
        "+insn-wise",
        "+loop-wise",
        "+bit-wise",
        "baseline",
        "orders",
    ]);
    let baseline = opts.baseline_samples() as u64;
    for w in fsp_workloads::all(Scale::Paper) {
        if w.paper_reference().is_none() {
            continue;
        }
        let experiment = Experiment::prepare(&w).expect("workload runs");
        let pipeline = PruningPipeline::new(PruningConfig::default());
        let plan = pipeline.plan_for(&experiment).expect("plan");
        let s = plan.stages;
        t.row(vec![
            format!("{} {}", w.app(), w.id()),
            crate::output::sci(s.exhaustive as f64),
            crate::output::sci(s.after_static as f64),
            crate::output::sci(s.after_thread as f64),
            crate::output::sci(s.after_instruction as f64),
            crate::output::sci(s.after_loop as f64),
            s.after_bit.to_string(),
            baseline.to_string(),
            format!("{:.1}", s.reduction_orders()),
        ]);
    }
    format!(
        "Figure 10: fault sites remaining after each progressive pruning stage\n\
         (paper-scale geometry; \"orders\" = log10(exhaustive / final))\n\n{t}"
    )
}
