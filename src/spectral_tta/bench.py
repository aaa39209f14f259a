"""Synthetic corruption benchmark: dataset generation, a corruption bank
with five severity levels, end-to-end error grids, and the rank / step
ablations. Everything is a pure function of (config, seed, checkpoints).
"""

import copy
import csv
import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adapt import (
    AdaptConfig,
    RunRecord,
    baseline_bn_stats,
    baseline_no_adapt,
    baseline_bn_modulators,
    run_adaptation,
)
from .errors import ConfigError, ContractViolationError, check_fields, shown
from .filters import NEG_EXP, RELU_RIDGE, SpectralFilter
from .network import (
    Model,
    bad_model_args,
    build_model,
    fit_pca_from_source,
    insert_adapter,
    load_model,
    model_args,
    train_model,
)
from . import twocore
from .pca import PcaBasis

CORRUPTION_KINDS = (
    "gaussian-noise",
    "impulse-noise",
    "blur",
    "contrast",
    "brightness",
)

SEVERITIES = (1, 2, 3, 4, 5)

# per-kind severity parameter grids (artifact-chosen; validated only via
# the monotone mean-displacement invariant)
SEVERITY_GRIDS = {
    "gaussian-noise": [0.04, 0.08, 0.12, 0.16, 0.20],   # noise sigma
    "impulse-noise": [0.02, 0.05, 0.09, 0.14, 0.20],    # flip probability
    "blur": [0.4, 0.6, 0.8, 1.0, 1.3],                  # gaussian sigma
    "contrast": [0.75, 0.60, 0.45, 0.35, 0.25],         # contrast factor
    "brightness": [0.08, 0.16, 0.24, 0.32, 0.40],       # additive shift
}

METHODS = ("no-adapt", "bn-stats", "bn-modulators", "spectral-relu", "spectral-exp")

_FILTER_KIND = {"spectral-relu": RELU_RIDGE, "spectral-exp": NEG_EXP}

# the methods that take entropy steps, the only ones whose error an
# ablation's rank or step count can change
_ENTROPY_METHODS = ("bn-modulators", *_FILTER_KIND)


def _grid_list(known):
    """The rule for a grid list: non-empty, every entry known, each named once."""
    return lambda v: len(v) > 0 and set(v) <= set(known) and len(set(v)) == len(v)


# (key, rule its value must meet): a grid list names each entry once, as a
# repeat would put its rows in the table twice; numpy's generators take no
# negative seed; training for no epochs writes an untrained checkpoint; batch
# sizes are range() steps, so a value below 1 would fail deep inside the
# batching without naming the key; an ablation over no seeds would average
# over nothing; a PCA fit needs a rank of at least 1 and at least two samples;
# a NaN or non-positive train_lr would show only after every epoch, as a
# divergence; a relu-ridge mode with gamma_i <= 0 has zero subgradient, so a
# negative gamma_init silently makes spectral-relu projection-only; an
# ablation of a method without entropy steps would train and fit for nothing
_VALUE_RULES = (
    ("methods", _grid_list(METHODS)),
    ("corruptions", _grid_list(CORRUPTION_KINDS)),
    ("severities", _grid_list(SEVERITIES)),
    ("seed", lambda v: v >= 0),
    ("model.train_epochs", lambda v: v >= 1),
    ("model.train_batch", lambda v: v >= 1),
    ("pca.fit_batch", lambda v: v >= 1),
    ("pca.rank", lambda v: v >= 1),
    ("pca.fit_samples", lambda v: v >= 2),
    ("ablation.n_seeds", lambda v: v >= 1),
    ("model.train_lr", lambda v: 0 < v < math.inf),
    ("adapt.gamma_init", lambda v: 0 <= v < math.inf),
    ("ablation.method", lambda v: v in _ENTROPY_METHODS),
)


# ---- dataset -------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSpec:
    n_train: int = 2000
    n_test: int = 1000
    channels: int = 3
    height: int = 8
    width: int = 8
    n_classes: int = 4
    generator: str = "shape-patterns"
    seed: int = 0

    def __post_init__(self):
        """Each check names its key in the config's ``dataset`` section."""
        sizes = ("n_train", "n_test", "channels", "height", "width", "n_classes")
        checks = [(key, "must be >= 1", getattr(self, key) >= 1) for key in sizes] + [
            ("generator", "must be 'shape-patterns'", self.generator == "shape-patterns"),
            ("n_classes", f"must be at most {len(_PATTERNS)} with shape-patterns",
             self.n_classes <= len(_PATTERNS)),
        ]
        check_fields("dataset", self, checks)


# orientation/frequency pairs for the pattern generator; more classes than
# entries is infeasible by construction
_PATTERNS = [
    (0.0, 2.0), (90.0, 2.0), (45.0, 2.0), (135.0, 2.0),
    (0.0, 4.0), (90.0, 4.0), (45.0, 4.0), (135.0, 4.0),
]

# low-contrast gratings keep the classes separable on clean data while
# leaving severity-5 corruptions genuinely damaging
_PATTERN_AMPLITUDE = 0.15


def _gaussian_filter(x: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter`` with ``sigma`` on the last two axes
    (each image plane) and 0 on the rest, and ``mode="nearest"``, bit for
    bit in float64.

    It repeats scipy's arithmetic: a radius of ``int(4 * sigma + 0.5)``, the
    normalised kernel, the two axes filtered in order, each extended by the
    radius with copies of its edge value, and each output
    the centre tap plus the symmetric pairs from the outermost inward.
    Summed in another order the result differs in the last bit. The planes
    go through in blocks of about 2**15 values, so the temporaries stay in
    cache."""
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = w / w.sum()
    planes = x.reshape((-1,) + x.shape[-2:])
    out = np.empty_like(planes)
    step = max(1, (1 << 15) // planes[0].size)
    for start in range(0, len(planes), step):
        y = planes[start : start + step]
        for axis in (1, 2):
            line = np.moveaxis(y, axis, 0)  # the filtered axis first: long contiguous runs
            n = len(line)
            ext = line[np.clip(np.arange(-r, n + r), 0, n - 1)]
            acc = ext[r : r + n] * w[r]
            pair = np.empty_like(acc)  # one buffer for every pair's (left + right) * w
            for k in range(r):
                np.add(ext[k : k + n], ext[2 * r - k : 2 * r - k + n], out=pair)
                pair *= w[k]
                acc += pair
            y = np.moveaxis(acc, 0, axis)
        out[start : start + step] = y
    return out.reshape(x.shape)


def _class_templates(spec: DatasetSpec) -> np.ndarray:
    c, h, w = spec.channels, spec.height, spec.width
    k = spec.n_classes
    templates = np.empty((k, c, h, w))
    ys, xs = np.mgrid[0:h, 0:w]
    for cls in range(k):
        angle, freq = _PATTERNS[cls]
        rad = np.deg2rad(angle)
        phase = 2 * np.pi * freq * (xs * np.cos(rad) + ys * np.sin(rad)) / max(h, w)
        grating = 0.5 + _PATTERN_AMPLITUDE * np.cos(phase)
        # slight per-channel amplitude variation keeps channels distinct
        for ch in range(c):
            templates[cls, ch] = 0.5 + (grating - 0.5) * (1.0 - 0.15 * ch / max(1, c - 1))
    return templates


def _balanced_labels(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    counts = [n // k + (1 if i < n % k else 0) for i in range(k)]
    labels = np.repeat(np.arange(k), counts)
    rng.shuffle(labels)
    return labels


def _sample(templates, labels, rng):
    amp = rng.uniform(0.85, 1.15, size=(len(labels), 1, 1, 1))
    jitter = rng.normal(0.0, 0.05, size=(len(labels),) + templates.shape[1:])
    base = templates[labels]
    x = 0.5 + (base - 0.5) * amp + jitter
    return np.clip(x, 0.0, 1.0)


@functools.lru_cache(maxsize=1)
def gen_dataset(spec: DatasetSpec):
    """Deterministic synthetic dataset; returns ((train_x, train_y), (test_x, test_y)).

    Memoised on the spec: a call with an equal spec returns the same
    arrays, and a call with another spec replaces them. The arrays are
    read-only, so no caller can change a later caller's data."""
    rng = np.random.default_rng(spec.seed)
    templates = _class_templates(spec)
    train_y = _balanced_labels(spec.n_train, spec.n_classes, rng)
    train_x = _sample(templates, train_y, rng)
    test_y = _balanced_labels(spec.n_test, spec.n_classes, rng)
    test_x = _sample(templates, test_y, rng)
    for arr in (train_x, train_y, test_x, test_y):
        arr.flags.writeable = False
    return (train_x, train_y), (test_x, test_y)


# ---- corruptions ----------------------------------------------------------


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    severity: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ContractViolationError(f"unknown corruption kind {self.kind!r}")
        if self.severity not in SEVERITIES:
            raise ContractViolationError(f"severity must be 1..5, got {self.severity}")


def corrupt(images: np.ndarray, spec: CorruptionSpec) -> np.ndarray:
    """Apply one corruption at one severity; the input is left untouched."""
    x = np.asarray(images, dtype=np.float64)
    level = SEVERITY_GRIDS[spec.kind][spec.severity - 1]
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "gaussian-noise":
        out = x + rng.normal(0.0, level, size=x.shape)
    elif spec.kind == "impulse-noise":
        out = x.copy()
        mask = rng.random(x.shape) < level
        out[mask] = (rng.random(x.shape) < 0.5)[mask].astype(np.float64)
    elif spec.kind == "blur":
        out = _gaussian_filter(x, level)
    elif spec.kind == "contrast":
        out = 0.5 + (x - 0.5) * level
    else:  # brightness
        out = x + level
    return np.clip(out, 0.0, 1.0)


# ---- configuration ---------------------------------------------------------


DEFAULT_CONFIG = {
    "seed": 0,
    "dataset": {k: v for k, v in dataclasses.asdict(DatasetSpec()).items() if k != "seed"},
    "model": {
        "conv_channels": [8, 8],
        "kernel": 3,
        "insert_index": 3,
        "train_epochs": 20,
        "train_lr": 0.05,
        "train_batch": 64,
    },
    "pca": {
        "rank": 64,
        "fit_samples": 512,
        "fit_batch": 64,
    },
    "adapt": {**dataclasses.asdict(AdaptConfig()), "gamma_init": 1e-3},
    "methods": list(METHODS),
    "corruptions": list(CORRUPTION_KINDS),
    "severities": list(SEVERITIES),
    "ablation": {
        "method": "spectral-relu",
        "n_seeds": 3,
    },
}


def _has_default_type(default, value) -> bool:
    """Whether an override leaf has its default's type: a bool is never an
    int, an int is a valid float, and a list is checked element by element
    against the default's first element."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_has_default_type(default[0], v) for v in value)
    if isinstance(value, bool):
        return isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _merge_config(defaults: dict, override: dict, prefix: str = "", bad: list | None = None) -> dict:
    top = bad is None
    bad = [] if top else bad
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        if key not in defaults:
            bad.append(prefix + shown(str(key))[1:-1])  # the key as given, without the quotes
            continue
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {prefix + key!r} must be a mapping", [prefix + key])
            merged[key] = _merge_config(defaults[key], value, prefix + key + ".", bad)
        elif _has_default_type(defaults[key], value):
            merged[key] = copy.deepcopy(value)
        else:
            raise ConfigError(
                f"config key {prefix + key!r} must have the type of its default "
                f"{defaults[key]!r}, got {shown(value)}",
                [f"{prefix + key}:{shown(value)}"],
            )
    if top and bad:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(bad))}", sorted(bad))
    return merged


def load_config(override: dict | None = None) -> dict:
    """Merge a partial config over the defaults and validate it.

    Each leaf must have the type of its default (see ``DEFAULT_CONFIG``);
    the value checks below rely on that."""
    cfg = _merge_config(DEFAULT_CONFIG, override or {})
    _dataset_spec(cfg)  # DatasetSpec checks the dataset values, naming each key
    bad = []
    for key, ok in _VALUE_RULES:
        section, _, name = key.rpartition(".")
        v = cfg[section][name] if section else cfg[name]
        if not ok(v):
            bad.append(f"{key}:{shown(v)}")
    bad_args = bad_model_args(**_model_args(cfg))
    bad += [f"{key}:{shown(v)}" for key, v in _config_values(bad_args).items()]
    insert = cfg["model"]["insert_index"]
    if "conv_channels" not in bad_args and not 1 <= insert <= 3 * len(cfg["model"]["conv_channels"]):
        # the adapter takes the output of layer insert_index - 1, which
        # must be one of the conv-bn-relu blocks' 4-D maps
        bad.append(f"model.insert_index:{shown(insert)}")
    if bad:
        raise ConfigError(f"invalid config values: {', '.join(bad)}", bad)
    # a fit keeps at most one mode per sample and per entry of the adapter's
    # input, the output map of conv-bn-relu block (insert_index - 1) // 3
    d, rank = cfg["dataset"], cfg["pca"]["rank"]
    width = cfg["model"]["conv_channels"][(insert - 1) // 3] * d["height"] * d["width"]
    largest = min(cfg["pca"]["fit_samples"], d["n_train"], width)
    if rank > largest:
        raise ConfigError(
            f"pca.rank {shown(rank)} is more than the fit can give: at most {largest}",
            [f"pca.rank:{shown(rank)}"],
        )
    _adapt_config(cfg)  # AdaptConfig checks the adapt values, naming each key
    return cfg


def with_value(cfg: dict, key: str, value) -> dict:
    """``cfg`` with the ``section.name`` key set to ``value``, checked by
    :func:`load_config`."""
    section, name = key.split(".")
    return load_config({**cfg, section: {**cfg[section], name: value}})


def _dataset_spec(cfg: dict) -> DatasetSpec:
    return DatasetSpec(seed=cfg["seed"], **cfg["dataset"])


def _model_args(cfg: dict) -> dict:
    """The config's :func:`build_model` arguments, all but the seed."""
    d = cfg["dataset"]
    return {
        "input_shape": (d["channels"], d["height"], d["width"]),
        "conv_channels": cfg["model"]["conv_channels"],
        "kernel": cfg["model"]["kernel"],
        "n_classes": d["n_classes"],
    }


def _config_values(args: dict) -> dict:
    """The :func:`build_model` arguments in ``args`` by the config key that
    sets each: the input shape's three dims, then one key per argument."""
    shape_keys = ("dataset.channels", "dataset.height", "dataset.width")
    values = dict(zip(shape_keys, args.get("input_shape", ())))
    for name, v in args.items():
        if name != "input_shape":
            values[f"{'dataset' if name == 'n_classes' else 'model'}.{name}"] = v
    return values


def _adapt_config(cfg: dict) -> AdaptConfig:
    return AdaptConfig(**{f.name: cfg["adapt"][f.name] for f in dataclasses.fields(AdaptConfig)})


def make_batches(x: np.ndarray, y: np.ndarray, batch_size: int):
    """Split into ordered batches; a smaller tail batch is kept as-is."""
    return [
        (x[i : i + batch_size], y[i : i + batch_size])
        for i in range(0, len(x), batch_size)
    ]


# ---- training / fitting entry points ---------------------------------------


def train_from_config(cfg: dict) -> Model:
    (train_x, train_y), _ = gen_dataset(_dataset_spec(cfg))
    m = cfg["model"]
    model = build_model(cfg["seed"], **_model_args(cfg))
    return train_model(
        model,
        train_x,
        train_y,
        epochs=m["train_epochs"],
        lr=m["train_lr"],
        batch_size=m["train_batch"],
        seed=cfg["seed"],
    )


def fit_basis_from_config(cfg: dict, model: Model) -> PcaBasis:
    (train_x, _), _ = gen_dataset(_dataset_spec(cfg))
    pca_cfg = cfg["pca"]
    fit_x = train_x[: pca_cfg["fit_samples"]]
    batch = pca_cfg["fit_batch"]
    batches = [fit_x[i : i + batch] for i in range(0, len(fit_x), batch)]
    j = cfg["model"]["insert_index"] - 1  # adapter consumes this layer's output
    return fit_pca_from_source(model, batches, j, pca_cfg["rank"])


# ---- benchmark --------------------------------------------------------------


@dataclass
class ErrorTable:
    methods: list
    corruptions: list
    severities: list
    errors: dict  # (method, corruption, severity) -> float

    def row(self, method, corruption):
        return [self.errors[(method, corruption, s)] for s in self.severities]

    def severity_mean(self, method, severity):
        return float(
            np.mean([self.errors[(method, c, severity)] for c in self.corruptions])
        )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "corruption"] + [f"sev{s}" for s in self.severities] + ["mean"])
            for method in self.methods:
                for corruption in self.corruptions:
                    row = self.row(method, corruption)
                    writer.writerow(
                        [method, corruption] + [repr(v) for v in row] + [repr(float(np.mean(row)))]
                    )
                sev_means = [self.severity_mean(method, s) for s in self.severities]
                writer.writerow(
                    [method, "ALL"] + [repr(v) for v in sev_means] + [repr(float(np.mean(sev_means)))]
                )


def _spectral_model(model: Model, cfg: dict, basis: PcaBasis, method: str) -> Model:
    kind = _FILTER_KIND[method]
    gamma0 = np.full(basis.rank, cfg["adapt"]["gamma_init"])
    filt = SpectralFilter(kind, basis.singular_values, gamma0)
    return insert_adapter(model, cfg["model"]["insert_index"], basis, filt)


def _evaluate_cell(model, basis, cfg, method, batches, first=0) -> RunRecord:
    """``method`` on ``batches``, the cell's batches from index ``first`` on."""
    acfg = _adapt_config(cfg)
    if method == "no-adapt":
        return baseline_no_adapt(model, batches, first)
    if method == "bn-stats":
        return baseline_bn_stats(model, batches, first)
    if method == "bn-modulators":
        return baseline_bn_modulators(model, batches, acfg, first)
    if method in _FILTER_KIND:
        if basis is None:
            raise ContractViolationError(f"method {method!r} needs a fitted basis")
        work = _spectral_model(model, cfg, basis, method)
        return run_adaptation(work, batches, acfg, method=method, first=first)
    raise ConfigError(f"unknown method {shown(method)}", [f"methods:{shown(method)}"])


def _cell_seed(base_seed: int, corruption: str, severity: int) -> int:
    return base_seed * 1009 + CORRUPTION_KINDS.index(corruption) * 13 + severity


def _cell_batches(cfg: dict, test_set, corruption: str | None, severity: int):
    """The test set, corrupted unless ``corruption`` is None, in batches."""
    x, y = test_set
    if corruption is not None:
        seed = _cell_seed(cfg["seed"], corruption, severity)
        x = corrupt(x, CorruptionSpec(kind=corruption, severity=severity, seed=seed))
    return make_batches(x, y, cfg["adapt"]["batch_size"])


def run_cell(
    cfg: dict, model: Model, basis: PcaBasis | None, method: str, corruption=None, severity=5
) -> RunRecord:
    """Run one method on one (corruption, severity) cell of the grid, or on
    the clean test set when ``corruption`` is None. ``basis`` is needed only
    by the spectral methods. The record equals the grid's for that cell."""
    _, test_set = gen_dataset(_dataset_spec(cfg))
    batches = _cell_batches(cfg, test_set, corruption, severity)
    return _evaluate_cell(model, basis, cfg, method, batches)


def _run_part(cfg: dict, model: Model, basis: PcaBasis | None, episodes: list) -> list:
    """(cell, method, record) for each run of a (cell, method)'s episodes
    in ``episodes``: one evaluation per run, on a cell's batches corrupted
    when the part reaches the cell, one cell's batches held at a time."""
    _, test_set = gen_dataset(_dataset_spec(cfg))
    parts = []
    for cell, in_cell in itertools.groupby(episodes, key=lambda e: e[0]):
        batches = _cell_batches(cfg, test_set, *cell)
        for method, run in itertools.groupby(in_cell, key=lambda e: e[1]):
            run = list(run)
            first, end = run[0][2], run[-1][3]
            rec = _evaluate_cell(model, basis, cfg, method, batches[first:end], first)
            parts.append((cell, method, rec))
        del batches  # freed before the next cell's are made
    return parts


def _episodes(cfg: dict, n_batches: int) -> list:
    """The grid's episodes in run order (cell, then method, then batch), as
    (cell, method, first batch, end batch). An episode is the smallest run
    of a cell's batches that carries no state into the next one: the whole
    stream for an entropy method under the online protocol, each batch
    otherwise (the parameters and Adam state are reset before an episodic
    batch, and no-adapt and bn-stats learn nothing)."""
    online = cfg["adapt"]["protocol"] == "online"
    episodes = []
    for cell in itertools.product(cfg["corruptions"], cfg["severities"]):
        for method in cfg["methods"]:
            if online and method in _ENTROPY_METHODS:
                episodes.append((cell, method, 0, n_batches))
            else:
                episodes += [(cell, method, b, b + 1) for b in range(n_batches)]
    return episodes


def run_benchmark(cfg: dict, model: Model, basis: PcaBasis | None, out_dir=None):
    """Evaluate every configured method on every (corruption, severity).

    Returns (ErrorTable, {cell key: RunRecord}). With ``out_dir`` set,
    also writes table.csv and one records JSON-lines file per cell. Each
    cell is evaluated as :func:`run_cell` does. The grid's episodes are
    shared between two cores by :func:`twocore.map_halves`, and :func:`_run_part`
    evaluates each part. This process joins the parts of a record in
    batch order and writes every file.
    """
    _, test_set = gen_dataset(_dataset_spec(cfg))
    n_batches = len(range(0, len(test_set[1]), cfg["adapt"]["batch_size"]))
    run_part = functools.partial(_run_part, cfg, model, basis)
    joined = {}
    for cell, method, rec in twocore.map_halves(run_part, _episodes(cfg, n_batches)):
        if (cell, method) in joined:  # the rest of a record cut between the parts
            joined[cell, method].batches += rec.batches
        else:
            joined[cell, method] = rec
    errors = {}
    records = {}
    for ((corruption, severity), method), rec in joined.items():
        errors[(method, corruption, severity)] = rec.mean_error()
        records[f"{method}__{corruption}__sev{severity}"] = rec
    table = ErrorTable(
        methods=list(cfg["methods"]),
        corruptions=list(cfg["corruptions"]),
        severities=list(cfg["severities"]),
        errors=errors,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        table.to_csv(out / "table.csv")
        for key in sorted(records):
            records[key].to_jsonl(out / f"records__{key}.jsonl")
    return table, records


def load_checkpoint(cfg: dict, path) -> Model:
    """The model checkpoint at ``path``. One built with other arguments than
    the config's is refused with a ConfigError naming each differing key."""
    model = load_model(path)
    stored = _config_values(model_args(model))
    wanted = _config_values(_model_args(cfg))
    diff = [key for key in wanted if stored[key] != wanted[key]]
    if diff:
        found = "; ".join(
            f"{k} {shown(stored[k])} in the checkpoint, {shown(wanted[k])} in the config"
            for k in diff
        )
        raise ConfigError(
            f"checkpoint {path} does not match the config: {found}",
            [f"{k}:{shown(wanted[k])}" for k in diff],
        )
    return model


def load_inputs(cfg: dict, methods, model_path, basis_path):
    """(model, basis) from their files; the model must match ``cfg`` (see
    :func:`load_checkpoint`), and the basis is loaded only when one of
    ``methods`` is spectral, and is None otherwise. A basis fitted at
    another ``model.insert_index`` than the config's, or on another
    checkpoint, is refused with a ConfigError naming the key."""
    model = load_checkpoint(cfg, model_path)
    if not any(m in _FILTER_KIND for m in methods):
        return model, None
    basis = PcaBasis.load(basis_path)
    index, weights = cfg["model"]["insert_index"], model.weight_hash()
    refused = f"basis {basis_path} does not match checkpoint {model_path} and the config"
    if basis.insert_index != index:
        raise ConfigError(
            f"{refused}: insert_index {shown(basis.insert_index)} in the basis, {index} in the config",
            [f"model.insert_index:{index}"],
        )
    if basis.model_hash != weights:
        raise ConfigError(
            f"{refused}: model_hash {shown(basis.model_hash)} in the basis, {weights!r} of the checkpoint"
        )
    return model, basis


# ---- ablations ---------------------------------------------------------------


def _sweep(cfg: dict, key: str, values: list, protocol: str, label: str):
    """Severity-5 mean error of the ablation method at each value of the
    dotted config ``key``, averaged over ``ablation.n_seeds`` seeds. Per
    seed, the model is trained once and a basis is fitted once per distinct
    ``pca`` section."""
    if not values or values[0] < 1 or any(b <= a for a, b in zip(values, values[1:])):
        raise ContractViolationError(
            f"{label} values must be positive and strictly increasing, got {values}"
        )
    method = cfg["ablation"]["method"]
    base = with_value({**cfg, "methods": [method], "severities": [5]}, "adapt.protocol", protocol)
    points = [with_value(base, key, v) for v in values]  # each value checked before any work
    per_seed = [[] for _ in values]
    for i in range(cfg["ablation"]["n_seeds"]):
        seeded = [{**point, "seed": cfg["seed"] + i} for point in points]
        model = train_from_config(seeded[0])  # the swept key is not a training key
        fitted = None  # the pca section the basis was fitted with
        for point, errors in zip(seeded, per_seed):
            if point["pca"] != fitted:
                basis, fitted = fit_basis_from_config(point, model), point["pca"]
            table, _ = run_benchmark(point, model, basis)
            errors.append(table.severity_mean(method, 5))
    return [
        {label: v, "mean_error": float(np.mean(errors)), "per_seed": errors}
        for v, errors in zip(values, per_seed)
    ]


def ablate_rank(cfg: dict, ranks: list[int]):
    """Severity-5 episodic mean error vs PCA rank, seed-averaged."""
    return _sweep(cfg, "pca.rank", ranks, "episodic", "rank")


def ablate_steps(cfg: dict, steps: list[int]):
    """Severity-5 online mean error vs steps per batch, seed-averaged."""
    return _sweep(cfg, "adapt.steps_per_batch", steps, "online", "steps")
