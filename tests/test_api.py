"""Every name the package exports and every function the benchmark traces exists.

``bench/tracing.py`` wraps the functions its SPANS table lists by module and
name, and a run fails at ``Tracer.install`` when one is gone. The table is
read from the file's syntax tree, so the benchmark package is not imported.
The signature of every exported name is pinned, so a change to the public
API has to edit ``SIGNATURES``; so are the option strings and defaults of
every CLI subcommand, so a change to the command line has to edit ``CLI``.
"""

import argparse
import ast
import enum
import importlib
import inspect
from pathlib import Path

import qpcoherent
from qpcoherent import cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _spans():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SPANS" for t in node.targets))
    return [(entry.elts[0].value, entry.elts[1].value) for entry in table.elts]


def test_traced_functions_exist():
    spans = _spans()
    assert ("cli", "main") in spans and len(spans) > 10
    missing = [f"{module}.{name}" for module, name in spans
               if not callable(getattr(importlib.import_module(f"qpcoherent.{module}"),
                                       name, None))]
    assert missing == []


def test_exported_names_resolve():
    assert [name for name in qpcoherent.__all__
            if not hasattr(qpcoherent, name)] == []


#: str(inspect.signature) of each name in ``__all__``, in order; an enum by its
#: values, and an exception class that keeps Exception's constructor as (*args)
SIGNATURES = {
    'Basis': 'ShiftedLegendre|GeneralizedLaguerre',
    'CoherentState': "(z: 'complex', params: 'DeformationParams', coeffs: 'np.ndarray', norm_const: 'float', tail_bound: 'float') -> None",
    'DeformationParams': "(q: 'complex', p: 'complex') -> None",
    'FockOperators': "(dim: 'int', a: 'np.ndarray', a_dag: 'np.ndarray', delta: 'np.ndarray', delta_prime: 'np.ndarray', p_pow_neg_N: 'np.ndarray', params: 'DeformationParams') -> None",
    'IllConditionedError': '(*args)',
    'InvalidParameterError': '(*args)',
    'LabelOutOfDiskError': '(*args)',
    'Method': 'MomentReconstruction|FourierInversion',
    'MomentSet': "(params: 'DeformationParams', n_max: 'int', moments: 'np.ndarray', support: 'tuple[float, float]') -> None",
    'OverlapInconsistencyError': '(*args)',
    'ParameterMismatchError': '(*args)',
    'Prop1Row': "(Q: 'complex', y: 'float', verdict: 'Optional[RatioVerdict]', estimate: 'float', expected: 'RatioVerdict', consistent: 'bool', skipped: 'Optional[str]' = None) -> None",
    'QNumberSequence': "(params: 'DeformationParams', n_max: 'int', numbers: 'np.ndarray', factorials: 'np.ndarray', abs_factorials: 'np.ndarray', overflow_index: 'Optional[int]' = None, resonance_index: 'Optional[int]' = None) -> None",
    'QpcError': '(*args)',
    'QuadratureError': '(*args)',
    'RatioVerdict': 'Convergent|Divergent|Inconclusive',
    'Regime': 'RegimeI|RegimeII|Degenerate|Outside',
    'RegimeVerdict': "(params: 'DeformationParams', regime: 'Regime', v_exp: 'Optional[RatioVerdict]', v_wbar: 'Optional[RatioVerdict]', estimates: 'tuple[float, float]', boundary_margin: 'float', contradiction: 'bool', note: 'str' = '') -> None",
    'RelationReport': "(residual_qmutation: 'float', residual_delta_comm: 'float', residual_adag_comm: 'float', residual_qp: 'float', block_dim: 'int') -> None",
    'RootOfUnityDegeneracyError': '(index: int)',
    'SeriesControl': "(n_max: 'int' = 500, tol: 'float' = 1e-12, min_terms: 'int' = 10) -> None",
    'SeriesDivergenceError': '(*args)',
    'SeriesEvaluation': "(value: 'complex', terms_used: 'int', tail_bound: 'float', verdict: 'Verdict') -> None",
    'Verdict': 'Converged|Truncated|DivergentInput',
    'WeightFunction': "(support: 'tuple[float, float]', basis: 'Optional[Basis]', coeffs: 'Optional[np.ndarray]', grid_x: 'np.ndarray', grid_w: 'np.ndarray', min_value: 'float', method: 'Method', diagnostics: 'dict' = <factory>) -> None",
    'annihilator_residual': "(state: 'CoherentState', ops: 'FockOperators') -> 'float'",
    'boundary_margin': "(params: 'DeformationParams') -> 'float'",
    'build_operators': "(dim: 'int', params: 'DeformationParams') -> 'FockOperators'",
    'classify_regime': "(params: 'DeformationParams') -> 'Regime'",
    'convergence_radius': "(params: 'DeformationParams') -> 'float'",
    'default_parameter_grid': "() -> 'list[DeformationParams]'",
    'exp1': "(x: 'complex', params: 'DeformationParams', ctrl: 'SeriesControl' = SeriesControl(n_max=500, tol=1e-12, min_terms=10)) -> 'SeriesEvaluation'",
    'exp2': "(x: 'complex', params: 'DeformationParams', ctrl: 'SeriesControl' = SeriesControl(n_max=500, tol=1e-12, min_terms=10)) -> 'SeriesEvaluation'",
    'identity_matrix_2d': "(weight: 'WeightFunction', params: 'DeformationParams', dim: 'int') -> 'np.ndarray'",
    'label_distance_sq': "(s1: 'CoherentState', s2: 'CoherentState') -> 'float'",
    'make_state': "(z: 'complex', params: 'DeformationParams', dim: 'int | None' = None) -> 'CoherentState'",
    'moment_ratios': "(weight: 'WeightFunction', params: 'DeformationParams', dim: 'int') -> 'tuple[np.ndarray, int]'",
    'overlap': "(s1: 'CoherentState', s2: 'CoherentState') -> 'complex'",
    'physical_weight': "(wtilde: 'WeightFunction', params: 'DeformationParams') -> 'WeightFunction'",
    'proposition1_check': "(Q: 'complex', y_samples: 'Sequence[float]') -> 'list[Prop1Row]'",
    'proposition2_check': "(grid: 'Sequence[DeformationParams]', y_samples: 'Sequence[float]' = (0.5, 1.0, 2.0)) -> 'list[RegimeVerdict]'",
    'qp_sequence': "(n_max: 'int', params: 'DeformationParams') -> 'QNumberSequence'",
    'regime_report_to_csv': "(rows: 'Sequence[RegimeVerdict]', file_or_path) -> 'None'",
    'regime_report_to_json': "(rows: 'Sequence[RegimeVerdict]', file_or_path) -> 'None'",
    'relation_residuals': "(ops: 'FockOperators') -> 'RelationReport'",
    'resolution_residual': "(weight: 'WeightFunction', params: 'DeformationParams', dim: 'int') -> 'float'",
    'target_moments': "(params: 'DeformationParams', n_max: 'int') -> 'MomentSet'",
    'weight_from_fourier': "(params: 'DeformationParams', y_cut: 'float', damping: 'float', x_grid: 'np.ndarray') -> 'WeightFunction'",
    'weight_from_moments': "(moments: 'MomentSet', degree: 'int', *, grid_points: 'int' = 801, x_max: 'float | None' = None) -> 'WeightFunction'",
    'weight_to_csv': "(weight: 'WeightFunction', params: 'DeformationParams', file_or_path) -> 'None'",
    'weight_to_json': "(weight: 'WeightFunction', file_or_path) -> 'None'",
}


def _signature(obj):
    if isinstance(obj, enum.EnumMeta):
        return "|".join(member.value for member in obj)
    if isinstance(obj, type) and issubclass(obj, Exception) and "__init__" not in vars(obj):
        return "(*args)"
    return str(inspect.signature(obj))


def test_public_signatures_are_pinned():
    got = {name: _signature(getattr(qpcoherent, name)) for name in qpcoherent.__all__}
    assert list(got) == list(SIGNATURES)
    assert got == SIGNATURES


#: option strings and defaults of every CLI subcommand, in parser order
CLI = {
    'qnum': {'--q': 1 + 0j, '--p': 1 + 0j, '--out': None, '--format': 'csv',
             '--nmax': 12},
    'exp': {'--q': 1 + 0j, '--p': 1 + 0j, '--out': None, '--format': 'csv',
            '--which': 1, '--x': 1 + 0j, '--tol': 1e-12, '--nmax-terms': 500,
            '--min-terms': 10},
    'coherent': {'--q': 1 + 0j, '--p': 1 + 0j, '--out': None, '--format': 'csv',
                 '--z': 0.5 + 0j, '--dim': None, '--coeffs': False},
    'fock-check': {'--q': 1 + 0j, '--p': 1 + 0j, '--out': None,
                   '--format': 'csv', '--dim': 20},
    'weight': {'--q': 1 + 0j, '--p': 1 + 0j, '--out': None, '--format': 'csv',
               '--method': 'moments', '--degree': 12, '--nmax': 24,
               '--ycut': None, '--damping': 1e-3, '--grid-points': 513,
               '--xmax': None},
    'verify': {'--q': 1 + 0j, '--p': 1 + 0j, '--out': None, '--format': 'csv',
               '--dim': 20, '--degree': 12},
    'regimes': {'--out': None, '--format': 'csv', '--prop': 2},
}


def test_cli_options_are_pinned():
    parser = cli._build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    got = {name: {"/".join(action.option_strings): action.default
                  for action in command._actions
                  if action.option_strings and action.dest != "help"}
           for name, command in sub.choices.items()}
    def order(table):
        return [(name, list(options)) for name, options in table.items()]

    assert order(got) == order(CLI)
    assert got == CLI
    # a flag is read only under its full name, never an abbreviation
    assert not any(command.allow_abbrev for command in sub.choices.values())
