//! # Paper-to-code map
//!
//! Where each part of Chang & Cheng, *"Efficient Boolean Division and
//! Substitution Using Redundancy Addition and Removing"* (DAC'98 /
//! TCAD'99), lives in this workspace. This module contains no code — it is
//! the annotated table of contents for readers coming from the paper.
//!
//! | Paper | Here |
//! |---|---|
//! | §I — motivation: Boolean vs. algebraic substitution, the 6→4 literal example | [`crate::basic_divide_covers`]; pinned in `tests/paper_examples.rs::section1_literal_counts` |
//! | §I — "extended division" teaser (divisor `ab + c + …` decomposed) | [`crate::extended_divide_covers`]; `tests/paper_examples.rs::fig4_core_choice` |
//! | §II — RAR review (Fig. 1) | `boolsubst_atpg`: [`boolsubst_atpg::check_fault`], [`boolsubst_atpg::remove_redundant_wires`]; demo binary `fig1_rar` |
//! | §II — "most RAR techniques only add one wire at a time … little success with multiple wires" | [`boolsubst_atpg::rar_optimize`] (the general single-wire optimizer) vs. the division configuration; quantified in `ablation_rar_vs_division` |
//! | §III-A — SOS/POS definitions, Lemmas 1–2 | [`crate::sos`]: [`crate::is_sos_of`], [`crate::lemma1_holds`], [`crate::lemma2_holds`] |
//! | §III-B — basic division (Fig. 2): remainder split, a-priori-redundant AND, redundancy removal | [`crate::division`]: [`crate::split_remainder`], [`crate::basic_divide_covers`], the one region builder (`DivisionRegion`) and removal step (`divide_region`) shared with GDC; demo binary `fig2_basic_division` |
//! | §III-B — "the most time-consuming step is only redundancy removal" | [`boolsubst_atpg::remove_redundant_wires_with`] and its [`boolsubst_atpg::RemovalOptions`] |
//! | §III-B — implication effort as a run-time/quality knob (recursive learning cited as the exhaustive extreme) | [`boolsubst_atpg::ImplyOptions::learn_depth`], [`crate::DivisionOptions::exact`] (bounded exact search); measured in `ablation_effort` |
//! | §III-B — POS symmetry ("completely symmetric to us") | [`crate::pos_divide_covers`] (complement-domain duality); example `pos_substitution` |
//! | §IV — extended division: voting via implications (Fig. 3(a)) | [`crate::compute_vote_table`] (a pool of one in the single vote sweep) |
//! | §IV — Table I: vote table + SOS validity filter | [`crate::VoteTable`], [`crate::VoteRow::sos_valid`]; demo binary `fig3_table1_votes` |
//! | §IV — Fig. 4: candidate-intersection graph, maximal cliques | [`crate::enumerate_cliques`] (Bron–Kerbosch); demo binary `fig4_clique`; selection strategies in [`crate::CoreSelection`] |
//! | §IV — divisor decomposition `d = d_core + d_rest` | `plan_extended` inside [`crate::subst`]; visible in the `extended_division` example |
//! | §IV — multi-node divisors (Fig. 3(c)) | [`crate::extended_divide_pooled`] (one implication sweep over a divisor pool) |
//! | §IV — POS extended division ("the rest of the algorithm applies similarly") | [`crate::extended_divide_covers_pos`] |
//! | §V — configurations 1/2/3 (basic / ext / ext-GDC) | [`crate::SubstOptions::basic`], [`crate::SubstOptions::extended`], [`crate::SubstOptions::extended_gdc`] |
//! | §V — GDC: implications beyond the local region | [`crate::netcircuit`] (whole-network materialization, PO observation; per-target [`crate::netcircuit::ShadowBase`] snapshots) |
//! | §V — Scripts A/B/C, `script.algebraic` | `boolsubst_workloads::scripts`; binaries `table2`–`table5` |
//! | §V — "locally greedy … takes the first division that has a positive gain" (the Table V anomaly explanation) | [`crate::Acceptance`]; measured in `ablation_acceptance` |
//! | §V — internal don't cares "naturally taken into account" | implicitly by the implication engine; made explicit in [`crate::dontcare`] (SDC/ODC + `full_simplify`) |
//!
//! The evaluation tables and their measured counterparts are indexed in
//! `DESIGN.md` §4 and recorded in `EXPERIMENTS.md`.
