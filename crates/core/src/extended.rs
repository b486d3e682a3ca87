//! Extended Boolean division (Section IV): the divisor itself may be
//! decomposed. Every wire of the dividend *votes* — via fault implications
//! — for the set of divisor cubes whose implied value is 0; the vote table
//! is filtered by the SOS validity condition, and the best *core divisor*
//! is selected by a maximal-clique search on the intersection graph.

use crate::division::{basic_divide_covers, DivisionOptions, DivisionResult, Rails};
use boolsubst_atpg::{Circuit, Fault, FaultChecker, Value, Wire};
use boolsubst_cube::{Cover, Lit};

/// A dividend wire: literal `lit` inside cube `cube_index` of `f`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DividendWire {
    /// Index of the cube within the dividend cover.
    pub cube_index: usize,
    /// The literal the wire feeds.
    pub lit: Lit,
}

/// One row of the vote table (Table I of the paper).
#[derive(Debug, Clone)]
pub struct VoteRow {
    /// The voting wire.
    pub wire: DividendWire,
    /// Indices of divisor cubes with implied value 0 for this wire's
    /// stuck-at fault — the wire's candidate core divisor.
    pub candidates: Vec<usize>,
    /// True if the fault was untestable outright (wire removable without
    /// any divisor).
    pub always_removable: bool,
    /// True if the row survives the SOS validity filter (some candidate
    /// cube contains the wire's cube).
    pub sos_valid: bool,
}

/// The vote table: the paper's Table I, kept in full so the figure
/// binaries can print both the raw and the filtered versions.
#[derive(Debug, Clone)]
pub struct VoteTable {
    /// All rows, including filtered-out ones.
    pub rows: Vec<VoteRow>,
}

impl VoteTable {
    /// Rows that survive the SOS filter and are not trivially removable.
    #[must_use]
    pub fn valid_rows(&self) -> Vec<&VoteRow> {
        self.rows
            .iter()
            .filter(|r| r.sos_valid && !r.always_removable && !r.candidates.is_empty())
            .collect()
    }
}

/// Result of an extended division.
#[derive(Debug, Clone)]
pub struct ExtendedDivision {
    /// Indices (into the divisor cover) of the chosen core-divisor cubes.
    pub core_cube_indices: Vec<usize>,
    /// The core divisor cover.
    pub core: Cover,
    /// Number of wires the vote predicted removable with this core.
    pub expected_removals: usize,
    /// The basic division of the dividend by the core divisor.
    pub division: DivisionResult,
    /// The vote table (for diagnostics and the Table I reproduction).
    pub vote_table: VoteTable,
}

/// Computes the vote table for dividend `f` and divisor `d`: one row per
/// literal wire of `f`, listing the divisor cubes implied to 0 by the
/// wire's stuck-at-1 fault (Section IV, Table I). A pool of one for
/// [`compute_vote_tables_pooled`].
///
/// # Panics
///
/// Panics if the universes differ.
#[must_use]
pub fn compute_vote_table(f: &Cover, d: &Cover, opts: &DivisionOptions) -> VoteTable {
    let mut tables = vote_sweep(f, std::slice::from_ref(d), opts, None);
    tables.pop().expect("one table per divisor")
}

/// Pooled vote computation (the paper's Fig. 3(c) generalization): one
/// implication sweep over the dividend's wires, with the cube gates of
/// *several* candidate divisor nodes observing simultaneously. Returns one
/// vote table per divisor, at the cost of a single fault sweep.
///
/// # Panics
///
/// Panics if any universe differs.
#[must_use]
pub fn compute_vote_tables_pooled(
    f: &Cover,
    divisors: &[Cover],
    opts: &DivisionOptions,
) -> Vec<VoteTable> {
    vote_sweep(f, divisors, opts, None)
}

/// The one vote sweep. Builds the voting circuit of Fig. 3(a)/(c) — the
/// dividend as a two-level AND–OR structure observed at its output, then
/// each divisor's cube gates and OR over the same literal rails — and
/// checks every dividend wire's stuck-at-1 fault once, reading the
/// implied values of every divisor's cubes.
///
/// `skip_cube` is a per-cube skip mask: no fault check is run (and no
/// row emitted) for the wires of a cube with `skip_cube[ci]` set. It is
/// meant for callers holding a *proof* that cube `ci` of `f` is not
/// contained in any divisor cube (e.g. a simulation-signature witness):
/// such a cube's rows could never be `sos_valid`, so
/// [`VoteTable::valid_rows`] — and therefore core selection — is
/// identical to the unmasked table, with the per-wire ATPG work saved.
/// Whenever a mask is supplied the same reasoning is applied
/// syntactically as well: cubes contained in no divisor cube are skipped
/// outright. Without a mask every row is kept, so
/// [`CoreSelection::NoSosFilter`] callers still see the full table.
fn vote_sweep(
    f: &Cover,
    divisors: &[Cover],
    opts: &DivisionOptions,
    skip_cube: Option<&[bool]>,
) -> Vec<VoteTable> {
    if let Some(mask) = skip_cube {
        assert_eq!(mask.len(), f.len(), "skip mask length mismatch");
    }
    let mut circuit = Circuit::new();
    let mut rails = Rails::fresh(&mut circuit, f.num_vars());
    let f_cube_gates = rails.cubes(&mut circuit, f);
    let f_or = circuit.add_or(f_cube_gates.clone());
    circuit.add_output(f_or);
    let divisor_gates: Vec<_> = divisors
        .iter()
        .map(|d| {
            assert_eq!(d.num_vars(), f.num_vars(), "universe mismatch");
            let gates = rails.cubes(&mut circuit, d);
            // The divisor's OR keeps the structure of Fig. 3(a); it also
            // lets backward implications relate the cubes.
            circuit.add_or(gates.clone());
            gates
        })
        .collect();
    let mut checker = FaultChecker::new(circuit);

    let mut tables: Vec<VoteTable> = divisors
        .iter()
        .map(|_| VoteTable { rows: Vec::new() })
        .collect();
    for (ci, cube) in f.cubes().iter().enumerate() {
        if skip_cube
            .is_some_and(|mask| mask[ci] || !divisors.iter().any(|d| d.some_cube_contains(cube)))
        {
            continue;
        }
        let cube_gate = f_cube_gates[ci];
        for lit in cube.lits() {
            let driver = rails.gate(lit);
            let Some(pin) = checker
                .circuit()
                .fanins(cube_gate)
                .iter()
                .position(|&g| g == driver)
            else {
                continue;
            };
            let fault = Fault::sa1(Wire {
                gate: cube_gate,
                pin,
            });
            let wire = DividendWire {
                cube_index: ci,
                lit,
            };
            let values = checker.check(fault, opts.imply).ok();
            for ((table, gates), d) in tables.iter_mut().zip(&divisor_gates).zip(divisors) {
                let Some(values) = values else {
                    table.rows.push(VoteRow {
                        wire,
                        candidates: Vec::new(),
                        always_removable: true,
                        sos_valid: false,
                    });
                    continue;
                };
                let candidates: Vec<usize> = gates
                    .iter()
                    .enumerate()
                    .filter_map(|(ki, &g)| (values[g.index()] == Value::Zero).then_some(ki))
                    .collect();
                // SOS validity: some candidate cube contains this wire's
                // cube, so the wire's cube stays in the kept region once
                // the candidate is the core divisor.
                let sos_valid = candidates.iter().any(|&ki| d.cubes()[ki].contains(cube));
                table.rows.push(VoteRow {
                    wire,
                    candidates,
                    always_removable: false,
                    sos_valid,
                });
            }
        }
    }
    tables
}

/// A clique found on the candidate-intersection graph, with its common
/// core divisor.
#[derive(Debug, Clone)]
pub struct CliqueChoice {
    /// Indices into `VoteTable::valid_rows()` of the member wires.
    pub members: Vec<usize>,
    /// The common intersection of the members' candidate sets.
    pub core_cube_indices: Vec<usize>,
    /// Number of member wires whose cube is contained by some common
    /// core cube (the validated score).
    pub score: usize,
}

/// Enumerates maximal cliques of the intersection graph (Bron–Kerbosch,
/// bounded) and validates each clique's *common* candidate intersection
/// (pairwise-nonempty does not imply common-nonempty) plus the per-wire
/// SOS condition against the common core.
#[must_use]
pub fn enumerate_cliques(table: &VoteTable, limit: usize) -> Vec<CliqueChoice> {
    let rows = table.valid_rows();
    let m = rows.len();
    let mut adj = vec![vec![false; m]; m];
    for i in 0..m {
        for j in i + 1..m {
            let shared = rows[i]
                .candidates
                .iter()
                .any(|k| rows[j].candidates.contains(k));
            adj[i][j] = shared;
            adj[j][i] = shared;
        }
    }
    let mut cliques: Vec<Vec<usize>> = Vec::new();
    bron_kerbosch(
        &adj,
        &mut Vec::new(),
        (0..m).collect(),
        Vec::new(),
        &mut cliques,
        limit,
    );
    let mut out = Vec::new();
    for members in cliques {
        let mut common: Option<Vec<usize>> = None;
        for &i in &members {
            let cand = &rows[i].candidates;
            common = Some(match common {
                None => cand.clone(),
                Some(prev) => prev.into_iter().filter(|k| cand.contains(k)).collect(),
            });
        }
        let core_cube_indices = common.unwrap_or_default();
        if core_cube_indices.is_empty() {
            continue;
        }
        // Provisional score: clique size. The caller re-validates each
        // member's SOS condition against the common core (it owns the
        // dividend cover, which is needed for that check).
        let score = members.len();
        out.push(CliqueChoice {
            members,
            core_cube_indices,
            score,
        });
    }
    out
}

fn bron_kerbosch(
    adj: &[Vec<bool>],
    r: &mut Vec<usize>,
    mut p: Vec<usize>,
    mut x: Vec<usize>,
    out: &mut Vec<Vec<usize>>,
    limit: usize,
) {
    if out.len() >= limit {
        return;
    }
    if p.is_empty() && x.is_empty() {
        if !r.is_empty() {
            out.push(r.clone());
        }
        return;
    }
    // Pivot: vertex of P ∪ X with the most neighbours in P.
    let pivot = p
        .iter()
        .chain(x.iter())
        .copied()
        .max_by_key(|&u| p.iter().filter(|&&v| adj[u][v]).count());
    let candidates: Vec<usize> = match pivot {
        Some(u) => p.iter().copied().filter(|&v| !adj[u][v]).collect(),
        None => p.clone(),
    };
    for v in candidates {
        r.push(v);
        let p2: Vec<usize> = p.iter().copied().filter(|&w| adj[v][w]).collect();
        let x2: Vec<usize> = x.iter().copied().filter(|&w| adj[v][w]).collect();
        bron_kerbosch(adj, r, p2, x2, out, limit);
        r.pop();
        p.retain(|&w| w != v);
        x.push(v);
    }
}

/// Upper bound on the number of cliques examined per extended division.
pub const CLIQUE_LIMIT: usize = 512;

/// Strategy for choosing the core divisor from the vote table — the
/// ablation knob around the paper's maximal-clique reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoreSelection {
    /// Maximal cliques plus row/pairwise candidate subsets, final choice
    /// by actual division cost (the library default).
    #[default]
    CliqueAndSubsets,
    /// Only maximal-clique common intersections (the paper's literal
    /// formulation).
    CliquesOnly,
    /// Each row's own candidate set, best row wins (no clique search).
    GreedyRow,
    /// Like the default but skipping the SOS validity filter — shows why
    /// the paper's Table I filtering step matters.
    NoSosFilter,
}

/// Extended Boolean division: selects a core divisor `d_c ⊆ d` via the
/// vote/clique mechanism, then performs a basic division of `f` by `d_c`.
/// Returns `None` when no useful core divisor exists.
///
/// # Panics
///
/// Panics if the universes differ or `d` is empty.
#[must_use]
pub fn extended_divide_covers(
    f: &Cover,
    d: &Cover,
    opts: &DivisionOptions,
) -> Option<ExtendedDivision> {
    extended_divide_covers_with(f, d, opts, CoreSelection::default())
}

/// [`extended_divide_covers`] with an explicit core-selection strategy
/// (used by the ablation studies).
///
/// # Panics
///
/// Panics if the universes differ or `d` is empty.
#[must_use]
pub fn extended_divide_covers_with(
    f: &Cover,
    d: &Cover,
    opts: &DivisionOptions,
    selection: CoreSelection,
) -> Option<ExtendedDivision> {
    extended_divide(f, d, opts, selection, None)
}

/// [`extended_divide_covers_with`] with the vote sweep's optional skip
/// mask (see `vote_sweep` for its contract): fault checks run only for
/// unmasked cubes, and the selected core — hence the division result —
/// is identical to the unmasked call. A mask is unsound under
/// [`CoreSelection::NoSosFilter`], which resurrects invalid rows.
///
/// # Panics
///
/// Panics if the universes differ, `d` is empty, or the mask length is
/// not `f.len()`.
pub(crate) fn extended_divide(
    f: &Cover,
    d: &Cover,
    opts: &DivisionOptions,
    selection: CoreSelection,
    skip_cube: Option<&[bool]>,
) -> Option<ExtendedDivision> {
    assert!(!d.is_empty(), "division by the empty cover");
    debug_assert!(skip_cube.is_none() || selection != CoreSelection::NoSosFilter);
    let mut table = vote_sweep(f, std::slice::from_ref(d), opts, skip_cube)
        .pop()
        .expect("one table per divisor");
    if selection == CoreSelection::NoSosFilter {
        for row in &mut table.rows {
            if !row.always_removable && !row.candidates.is_empty() {
                row.sos_valid = true;
            }
        }
    }
    select_core(f, d, table, opts, selection)
}

/// Core-divisor selection and final division for a computed vote table
/// (shared by the single-divisor and pooled entry points).
fn select_core(
    f: &Cover,
    d: &Cover,
    table: VoteTable,
    opts: &DivisionOptions,
    selection: CoreSelection,
) -> Option<ExtendedDivision> {
    let rows = table.valid_rows();
    if rows.is_empty() {
        return None;
    }
    let cliques = if selection == CoreSelection::GreedyRow {
        Vec::new()
    } else {
        enumerate_cliques(&table, CLIQUE_LIMIT)
    };

    // Candidate cores: common intersections of the maximal cliques, each
    // row's own candidate set, and pairwise intersections of row sets. A
    // maximal clique's common intersection can be strictly worse than a
    // sub-clique's larger intersection, so both granularities are scored.
    let mut cores: Vec<Vec<usize>> = Vec::new();
    let push_core = |mut core: Vec<usize>, cores: &mut Vec<Vec<usize>>| {
        core.sort_unstable();
        core.dedup();
        if !core.is_empty() && !cores.contains(&core) {
            cores.push(core);
        }
    };
    for clique in &cliques {
        push_core(clique.core_cube_indices.clone(), &mut cores);
    }
    if selection != CoreSelection::CliquesOnly {
        for (i, row) in rows.iter().enumerate() {
            push_core(row.candidates.clone(), &mut cores);
            if selection != CoreSelection::GreedyRow {
                for other in rows.iter().skip(i + 1) {
                    let inter: Vec<usize> = row
                        .candidates
                        .iter()
                        .copied()
                        .filter(|k| other.candidates.contains(k))
                        .collect();
                    push_core(inter, &mut cores);
                }
            }
            if cores.len() > 64 {
                break;
            }
        }
    }

    // Score each core by the number of wires expected removed (core ⊆
    // candidates(w)) whose cube stays in the kept region (SOS vs. core).
    let mut scored: Vec<(Vec<usize>, usize, usize)> = cores
        .into_iter()
        .filter_map(|core| {
            let score = rows
                .iter()
                .filter(|row| {
                    core.iter().all(|k| row.candidates.contains(k))
                        && core
                            .iter()
                            .any(|&k| d.cubes()[k].contains(&f.cubes()[row.wire.cube_index]))
                })
                .count();
            if score == 0 {
                return None;
            }
            let lits: usize = core.iter().map(|&k| d.cubes()[k].literal_count()).sum();
            Some((core, score, lits))
        })
        .collect();
    scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)));
    scored.truncate(8);

    // Decide among the finalists by actually dividing.
    let mut best: Option<(Vec<usize>, usize, Cover, DivisionResult)> = None;
    for (core_idx, score, _) in scored {
        let core = Cover::from_cubes(
            f.num_vars(),
            core_idx.iter().map(|&k| d.cubes()[k].clone()).collect(),
        );
        let division = basic_divide_covers(f, &core, opts);
        if !division.succeeded() {
            continue;
        }
        if best
            .as_ref()
            .is_none_or(|(.., bd)| division.sop_cost() < bd.sop_cost())
        {
            best = Some((core_idx, score, core, division));
        }
    }
    let (core_cube_indices, expected_removals, core, division) = best?;
    Some(ExtendedDivision {
        core_cube_indices,
        core,
        expected_removals,
        division,
        vote_table: table,
    })
}

/// Extended division against a *pool* of divisor candidates: computes all
/// vote tables in one implication sweep, selects a core per divisor, and
/// returns the divisor index whose division is cheapest.
///
/// # Panics
///
/// Panics if any universe differs.
#[must_use]
pub fn extended_divide_pooled(
    f: &Cover,
    divisors: &[Cover],
    opts: &DivisionOptions,
) -> Option<(usize, ExtendedDivision)> {
    let tables = compute_vote_tables_pooled(f, divisors, opts);
    let mut best: Option<(usize, ExtendedDivision)> = None;
    for (i, (d, table)) in divisors.iter().zip(tables).enumerate() {
        if d.is_empty() {
            continue;
        }
        let Some(ext) = select_core(f, d, table, opts, CoreSelection::default()) else {
            continue;
        };
        if best
            .as_ref()
            .is_none_or(|(_, b)| ext.division.sop_cost() < b.division.sop_cost())
        {
            best = Some((i, ext));
        }
    }
    best
}

/// Extended division in *product-of-sums* form (the paper's symmetric
/// case: "instead of focusing on the cubes that have implication value
/// zero, we focus on the sum terms that have implication value one").
/// Implemented through the exact complement-domain duality: the returned
/// core and quotient/remainder are complement-domain covers, i.e. the
/// actual POS factors are their complements.
///
/// Returns `None` when no useful core exists or the divisor is a
/// tautology (no complement-domain divisor).
///
/// # Panics
///
/// Panics if the universes differ.
#[must_use]
pub fn extended_divide_covers_pos(
    f: &Cover,
    d: &Cover,
    opts: &DivisionOptions,
) -> Option<ExtendedDivision> {
    let fc = f.complement();
    let dc = d.complement();
    if dc.is_empty() || fc.is_empty() {
        return None;
    }
    extended_divide_covers(&fc, &dc, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;

    #[test]
    fn vote_table_detects_divisor_zeros() {
        // Paper-style setup: f = ab + ac, d = ab + c. Wire b (in cube ab):
        // s-a-1 activates b=0, a=1, other cube ac must be 0 → c=0; then
        // divisor cubes: ab has b=0 → 0; c = 0 → 0. Both cubes implied 0.
        let f = parse_sop(3, "ab + ac").expect("f");
        let d = parse_sop(3, "ab + c").expect("d");
        let table = compute_vote_table(&f, &d, &DivisionOptions::paper_default());
        assert_eq!(table.rows.len(), 4);
        let row_b = table
            .rows
            .iter()
            .find(|r| r.wire.cube_index == 0 && r.wire.lit == Lit::pos(1))
            .expect("row for wire b");
        assert!(!row_b.always_removable);
        assert!(row_b.candidates.contains(&0), "ab cube should be implied 0");
        assert!(row_b.candidates.contains(&1), "c cube should be implied 0");
        assert!(row_b.sos_valid);
    }

    #[test]
    fn extended_division_selects_core_and_divides() {
        // f = ab + ac, divisor pool d = ab + c + de (de is junk): the core
        // should not need de.
        let f = parse_sop(5, "ab + ac").expect("f");
        let d = parse_sop(5, "ab + c + de").expect("d");
        let ext = extended_divide_covers(&f, &d, &DivisionOptions::paper_default())
            .expect("extended division finds a core");
        assert!(ext.division.verify(&f, &ext.core));
        assert!(!ext.core_cube_indices.contains(&2), "junk cube de chosen");
        assert!(ext.expected_removals >= 1);
    }

    #[test]
    fn extended_finds_subexpression_inside_bigger_divisor() {
        // The paper's Section I scenario: divisor g = ae + be + cd does
        // not divide f = ab + ac algebraically (quotient 0), but the
        // subexpression ... here: divisor h = abx + cx' — decomposing
        // exposes cores. Use the concrete paper example instead:
        // f = ab + ac, existing node d = ab + c + e. Extended division
        // should extract core ab + c.
        let f = parse_sop(5, "ab + ac").expect("f");
        let d = parse_sop(5, "ab + c + e").expect("d");
        let ext =
            extended_divide_covers(&f, &d, &DivisionOptions::paper_default()).expect("core found");
        // Core must contain the cubes ab and c (indices 0 and 1) to
        // remove the most wires; e (index 2) must be dropped.
        assert!(ext.core_cube_indices.contains(&0));
        assert!(ext.core_cube_indices.contains(&1));
        assert!(!ext.core_cube_indices.contains(&2));
        assert!(ext.division.verify(&f, &ext.core));
        // Final result mirrors Fig. 3(b): q = a with core ab + c.
        assert!(ext.division.sop_cost() <= 3);
    }

    #[test]
    fn pooled_matches_single_divisor_runs() {
        let f = parse_sop(5, "ab + ac + bc'").expect("f");
        let divisors = vec![
            parse_sop(5, "ab + c + de").expect("d0"),
            parse_sop(5, "c'd").expect("d1"),
            parse_sop(5, "ab + c").expect("d2"),
        ];
        let opts = DivisionOptions::paper_default();
        let (best_idx, pooled) =
            extended_divide_pooled(&f, &divisors, &opts).expect("pool finds a core");
        assert!(pooled.division.verify(&f, &pooled.core));
        // The best pooled choice must match the best of the individual
        // runs (same cost).
        let mut best_single = usize::MAX;
        for d in &divisors {
            if let Some(e) = extended_divide_covers(&f, d, &opts) {
                best_single = best_single.min(e.division.sop_cost());
            }
        }
        assert_eq!(pooled.division.sop_cost(), best_single);
        assert_ne!(best_idx, 1, "the disjoint divisor cannot win");
    }

    #[test]
    fn pooled_empty_pool_is_none() {
        let f = parse_sop(3, "ab").expect("f");
        assert!(extended_divide_pooled(&f, &[], &DivisionOptions::paper_default()).is_none());
    }

    #[test]
    fn pos_extended_division_verifies_in_complement_domain() {
        // f = (a+b)(a+c)(b+c') — complement f' = a'b' + a'c' + b'c — and a
        // divisor whose POS structure embeds a useful core.
        let f = parse_sop(5, "ab + ac + bc'").expect("f");
        let d = parse_sop(5, "ab + c + de").expect("d");
        if let Some(ext) = extended_divide_covers_pos(&f, &d, &DivisionOptions::paper_default()) {
            // The division is exact in the complement domain:
            let fc = f.complement();
            assert!(ext.division.verify(&fc, &ext.core));
            // Which means the POS identity holds in the original domain:
            // f = (core' + q')·r' ... spot-check by re-complementing.
            let mut rebuilt = ext.division.quotient.and(&ext.core);
            rebuilt.extend_cover(&ext.division.remainder);
            assert!(rebuilt.complement().equivalent(&f));
        }
    }

    #[test]
    fn no_core_for_disjoint_divisor() {
        let f = parse_sop(4, "ab").expect("f");
        let d = parse_sop(4, "c'd").expect("d");
        assert!(extended_divide_covers(&f, &d, &DivisionOptions::paper_default()).is_none());
    }

    #[test]
    fn clique_common_intersection_validated() {
        // Construct a vote table by hand where pairwise intersections are
        // nonempty but the triple intersection is empty; ensure such a
        // clique is rejected.
        let rows = vec![
            VoteRow {
                wire: DividendWire {
                    cube_index: 0,
                    lit: Lit::pos(0),
                },
                candidates: vec![0, 1],
                always_removable: false,
                sos_valid: true,
            },
            VoteRow {
                wire: DividendWire {
                    cube_index: 1,
                    lit: Lit::pos(1),
                },
                candidates: vec![1, 2],
                always_removable: false,
                sos_valid: true,
            },
            VoteRow {
                wire: DividendWire {
                    cube_index: 2,
                    lit: Lit::pos(2),
                },
                candidates: vec![0, 2],
                always_removable: false,
                sos_valid: true,
            },
        ];
        let table = VoteTable { rows };
        let cliques = enumerate_cliques(&table, 100);
        for c in &cliques {
            assert!(
                !c.core_cube_indices.is_empty(),
                "clique with empty common intersection survived"
            );
            assert!(
                c.members.len() <= 2,
                "the 3-clique has empty common intersection"
            );
        }
    }
}
