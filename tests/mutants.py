"""Mutation gates: each entry breaks one checked rule of `src/`, and the
tests it names must fail on the broken copy.

An entry holds the file under the tree, the exact old text (which must
occur in it exactly once), the new text, and the pytest node ids that
must fail.  `tests/run_mutants.py` applies each entry to a copy of the
tree and runs the named tests there.  A change that moves or rewrites an
old text must update its entry here; a stale entry fails the runner.
"""

MUTANTS = [
    # -- the code predicate and the checks that call it ----------------------
    {
        "name": "code predicate accepts bools through isinstance",
        "file": "src/pgtool/fields.py",
        "old": "return _INT_ONLY.issuperset(map(type, values)) and",
        "new": "return all(isinstance(x, int) for x in values) and",
        "tests": [
            "tests/test_boundary.py::test_public_entry_points_reject_malformed_points[normalize-(True, 0, 0)]",
            "tests/test_boundary.py::test_quadratic_form_refuses_entries_that_are_no_codes[(True, 0, 0, 0, 0, 0)]",
        ],
    },
    {
        "name": "code predicate skips the range",
        "file": "src/pgtool/fields.py",
        "old": "_INT_ONLY.issuperset(map(type, values)) and self._codes.issuperset(values)",
        "new": "_INT_ONLY.issuperset(map(type, values))",
        "tests": [
            "tests/test_boundary.py::test_public_entry_points_reject_malformed_points[normalize-(3, 0, 0)]",
            "tests/test_boundary.py::test_public_entry_points_reject_malformed_points[normalize-(-1, 0, 0)]",
        ],
    },
    {
        "name": "QuadraticForm code check removed",
        "file": "src/pgtool/quadrics.py",
        "old": "        if not field.are_codes(coeffs):\n"
        '            raise SpaceMismatch(f"form coefficients must be integer codes in [0, {field.q})")\n',
        "new": "",
        "tests": [
            "tests/test_boundary.py::test_quadratic_form_refuses_entries_that_are_no_codes",
        ],
    },
    {
        "name": "bulk load skips the type test on key entries",
        "file": "src/pgtool/embeddings.py",
        "old": "{*map(type, chain.from_iterable(keys)), *map(type, codes)} != {int}",
        "new": "{*map(type, codes)} != {int}",
        "tests": [
            "tests/test_boundary.py::test_cli_rejects_bool_coordinates",
        ],
    },
    {
        "name": "entry load accepts two representatives of a point",
        "file": "src/pgtool/embeddings.py",
        "old": "        if key in norm:\n"
        '            raise InvalidPointMap(f"two representatives of source point {key}")\n',
        "new": "",
        "tests": [
            "tests/test_boundary.py::test_point_map_load_matches_the_per_entry_load[two representatives]",
        ],
    },
    {
        "name": "seeded kinds run without a seed",
        "file": "src/pgtool/generate.py",
        "old": '    if seed is None:\n        raise ParamOutOfRange(f"{kind} needs a seed")\n',
        "new": "",
        "tests": [
            "tests/test_boundary.py::test_generate_refusal_messages",
            "tests/test_harness.py::test_generate_param_errors",
        ],
    },
    # -- the fit record ---------------------------------------------------------
    {
        "name": "fit record recomputed on every read",
        "file": "src/pgtool/embeddings.py",
        "old": "    @functools.cached_property\n    def _fit(self)",
        "new": "    @property\n    def _fit(self)",
        "tests": [
            "tests/test_embeddings.py::test_each_table_is_fitted_once[2-3]",
        ],
    },
    {
        "name": "first point of D taken in set order",
        "file": "src/pgtool/embeddings.py",
        "old": "x = next(x for x in source.points() if x in d)",
        "new": "x = next(iter(d))",
        "tests": [
            "tests/test_embeddings.py::test_certificate_stops_at_first_mismatch[2-3]",
        ],
    },
    # -- pencils ----------------------------------------------------------------
    {
        "name": "lines_through swaps the pivots when k < j",
        "file": "src/pgtool/projective.py",
        "old": "pivots, rows = ((k, j), (x, rest)) if k < j",
        "new": "pivots, rows = ((j, k), (x, rest)) if k < j",
        "tests": [
            "tests/test_projective.py::test_lines_through_matches_span_and_dedupe_oracle[2-3-None]",
            "tests/test_projective.py::test_closed_form_pencils_equal_spanned_pencils[2-2]",
        ],
    },
    {
        "name": "lines_through leaves the residual out",
        "file": "src/pgtool/projective.py",
        "old": "rest = linalg.residual(self.field, (k,), (x,), point)",
        "new": "rest = point",
        "tests": [
            "tests/test_projective.py::test_lines_through_matches_span_and_dedupe_oracle[2-3-None]",
            "tests/test_projective.py::test_closed_form_pencils_equal_spanned_pencils[2-2]",
        ],
    },
    {
        "name": "is_regular leaves the pencil of one point of D out",
        "file": "src/pgtool/embeddings.py",
        "old": "for p in d for line in nu.source.lines_through(p)}",
        "new": "for p in sorted(d)[1:] for line in nu.source.lines_through(p)}",
        "tests": [
            "tests/test_embeddings.py::test_is_regular_scans_only_lines_through_d[2-3]",
            "tests/test_embeddings.py::test_is_regular_builds_no_line_table_when_d_is_known[2-3]",
        ],
    },
    {
        "name": "is_regular scans the pencils in reverse order",
        "file": "src/pgtool/embeddings.py",
        "old": "for rows in sorted(pencils))",
        "new": "for rows in sorted(pencils, reverse=True))",
        "tests": [
            "tests/test_embeddings.py::test_is_regular_scans_only_lines_through_d[2-3]",
        ],
    },
    # -- the witness walk's residual classes -------------------------------------
    {
        "name": "leaf compares class sizes, not classes",
        "file": "src/pgtool/embeddings.py",
        "old": "if ycls[yres[i]] != rcls[rres[i]]:",
        "new": "if ycls[yres[i]].bit_count() != rcls[rres[i]].bit_count():",
        "tests": [
            "tests/test_embeddings.py::test_first_witness_mismatches_only_after_its_last_point[2-3]",
            "tests/test_embeddings.py::test_reduced_scan_matches_literal_scan_on_swapped_and_random_maps[2-3]",
        ],
    },
    {
        "name": "a residual class keeps only its last position",
        "file": "src/pgtool/linalg.py",
        "old": "cls[w] = cls.get(w, 0) | 1 << i",
        "new": "cls[w] = 1 << i",
        "tests": [
            "tests/test_quadrics.py::test_chain_search_visits_every_child[2-2]",
        ],
    },
    # -- canonical_products -------------------------------------------------------
    {
        "name": "canonical_products skips the reduction mod p",
        "file": "src/pgtool/linalg.py",
        "old": "        codes = codes.translate(tables.residue)\n",
        "new": "",
        "tests": [
            "tests/test_linalg.py::test_canonical_products_matches_mat_vec[9-30]",
        ],
    },
    {
        "name": "canonical_products leads from the last nonzero coordinate",
        "file": "src/pgtool/linalg.py",
        "old": "    for row in rows:\n        lead |=",
        "new": "    for row in reversed(rows):\n        lead |=",
        "tests": [
            "tests/test_linalg.py::test_canonical_products_matches_mat_vec[9-30]",
        ],
    },
    {
        "name": "canonical_products drops one inverse-lead class",
        "file": "src/pgtool/linalg.py",
        "old": "for a in set(leads):",
        "new": "for a in sorted(set(leads))[:-1]:",
        "tests": [
            "tests/test_linalg.py::test_canonical_products_matches_mat_vec[2-40]",
            "tests/test_linalg.py::test_canonical_products_matches_mat_vec[9-30]",
        ],
    },
    # -- subset_ranks and meet ------------------------------------------------------
    {
        "name": "subset_ranks counts a zero residual as rank",
        "file": "src/pgtool/linalg.py",
        "old": "grown = rank + (w is not None)",
        "new": "grown = rank + 1",
        "tests": [
            "tests/test_linalg.py::test_subset_ranks_match_rank_on_every_index_tuple[2]",
        ],
    },
    {
        "name": "subset_ranks leaves the tail unreduced",
        "file": "src/pgtool/linalg.py",
        "old": "tail = res[i + 1 :] if w is None else reduce_residuals(field, res, i)",
        "new": "tail = res[i + 1 :]",
        "tests": [
            "tests/test_linalg.py::test_subset_ranks_match_rank_on_every_index_tuple[2]",
        ],
    },
    {
        "name": "meet returns the left halves",
        "file": "src/pgtool/projective.py",
        "old": "tuple(row[n1:] for row in rows[k:])",
        "new": "tuple(row[:n1] for row in rows[k:])",
        "tests": [
            "tests/test_projective.py::test_meet_join_examples",
            "tests/test_projective.py::test_meet_matches_complements_on_every_pair[2-2]",
        ],
    },
    # -- reuse: the literal oracle, the stored point order, one frame, one writer --
    {
        "name": "closure-transfer oracle keeps a zero set that does not contain M",
        "file": "src/pgtool/suites.py",
        "old": "z for z in zero_sets if z >= subset",
        "new": "z for z in zero_sets if z & subset",
        "tests": [
            "tests/test_suites.py::test_closure_transfer_reports_subsets_whose_closure_differs",
            "tests/test_harness.py::test_cli_suite_single",
        ],
    },
    {
        "name": "bulk load keeps the input order",
        "file": "src/pgtool/embeddings.py",
        "old": "norm = {p: linalg.canonical(field, table[p]) for p in pts}",
        "new": "norm = {p: linalg.canonical(field, table[p]) for p in table}",
        "tests": [
            "tests/test_embeddings.py::test_loaded_tables_are_stored_in_point_order[broken-2-3]",
            "tests/test_embeddings.py::test_loaded_tables_are_stored_in_point_order[kappa_rho-2-4]",
        ],
    },
    {
        "name": "image read in another order than the stored one",
        "file": "src/pgtool/embeddings.py",
        "old": "return list(self.table.values())",
        "new": "return sorted(self.table.values())",
        "tests": [
            "tests/test_embeddings.py::test_loaded_tables_are_stored_in_point_order[kappa_rho-2-3]",
        ],
    },
    {
        "name": "full_subspace takes the frame shifted by one",
        "file": "src/pgtool/projective.py",
        "old": "standard_frame(self)[:-1])",
        "new": "standard_frame(self)[1:])",
        "tests": [
            "tests/test_projective.py::test_full_subspace_is_the_span_of_every_point[2-3]",
        ],
    },
    {
        "name": "default_complement takes the frame shifted by one",
        "file": "src/pgtool/embeddings.py",
        "old": "iter(standard_frame(space)[:-1])",
        "new": "iter(standard_frame(space)[1:])",
        "tests": [
            "tests/test_embeddings.py::test_complements_draw_like_literal_loops[2-3]",
        ],
    },
    {
        "name": "indented-JSON writer without sorted keys",
        "file": "src/pgtool/cli.py",
        "old": "json.dump(data, fh, indent=2, sort_keys=True)",
        "new": "json.dump(data, fh, indent=2)",
        "tests": [
            "tests/test_harness.py::test_cli_json_is_indented_with_sorted_keys",
        ],
    },
    {
        "name": "veronese pairs read off a shifted image",
        "file": "src/pgtool/cli.py",
        "old": "zip(ver.source.points(), ver.image())",
        "new": "zip(ver.source.points(), ver.image()[1:])",
        "tests": [
            "tests/test_boundary.py::test_cli_veronese_without_a_point",
        ],
    },
]
