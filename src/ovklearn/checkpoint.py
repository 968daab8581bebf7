"""Single-file model checkpoints: one .npz with arrays plus JSON metadata.

The archive stores the kernel specification, support points, effective
coefficients (lazy decay scale folded in), the step counter, and the
per-model extras (tracked norms, kernel weights).  An online learner's
terms go through its public ``to_arrays``/``restore`` pair.  Loading
rebuilds a learner whose predictions match the saved one to 1e-12;
transient diagnostics (clip counters) are not persisted.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np

from .batch import BatchModel
from .exceptions import DataError, OvkError
from .kernels import kernel_from_dict
from .losses import EpsilonInsensitive, loss_from_name
from .monorma import MONORMA
from .onorma import ONORMA, TruncationSchedule

__all__ = ["FORMAT_VERSION", "save_model", "load_model"]

FORMAT_VERSION = 1

# what numpy, zipfile and the field lookups raise on a file that is not a
# complete checkpoint (a bare .npy array fails the `with` with TypeError)
_READ_ERRORS = (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile)


def _loss_spec(loss) -> str:
    # repr keeps epsilon exact; name() formats it for display
    if isinstance(loss, EpsilonInsensitive):
        return f"eps({loss.epsilon!r})"
    return loss.name()


def save_model(path, model) -> None:
    """Write an ONORMA, MONORMA, or BatchModel checkpoint."""
    if isinstance(model, (ONORMA, MONORMA)):
        support, coeffs, times, input_dim = model.to_arrays()
        arrays = {"support": support, "coeffs": coeffs, "times": times}
        tr = model.truncation
        meta = {
            "format_version": FORMAT_VERSION,
            "loss": _loss_spec(model.loss),
            "lam": model.lam,
            "eta0": model.eta0,
            "truncation": None if tr is None else {"t0": tr.t0, "epsilon": tr.epsilon},
            "t": model.t,
            "input_dim": input_dim,
        }
        if isinstance(model, ONORMA):
            meta.update(model="onorma", kernel=model.kernel.to_dict(), norm_sq=model.norm_sq)
        else:
            meta.update(
                model="monorma",
                kernels=[k.to_dict() for k in model.kernels],
                r=model.r,
                delta=model.delta.tolist(),
                gamma=model.gamma.tolist(),
            )
    elif isinstance(model, BatchModel):
        arrays = {
            "support": np.asarray(model.support, dtype=float),
            "coeffs": np.asarray(model.coeffs, dtype=float),
        }
        meta = {
            "format_version": FORMAT_VERSION,
            "model": "batch",
            "kernel": model.kernel.to_dict(),
            "lam": model.lam,
            "norm_sq": model.norm_sq,
        }
    else:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


def load_model(path):
    """Rebuild the saved model.

    Every failure to read it, from a missing or non-npz file to an
    archive without the expected entries, raises DataError.
    """
    try:
        with np.load(path, allow_pickle=False) as zf:
            return _model_from(path, zf)
    except OvkError:
        raise
    except _READ_ERRORS as exc:
        raise DataError(f"{path}: not a model checkpoint: {exc!r}") from None


def _model_from(path, zf):
    meta = json.loads(str(zf["meta"]))
    if not isinstance(meta, dict):
        raise DataError(f"{path}: not a model checkpoint: metadata is not an object")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported checkpoint format version {version!r}"
        )
    kind = meta.get("model")
    if kind == "batch":
        return BatchModel(
            kernel=kernel_from_dict(meta["kernel"]),
            support=zf["support"].copy(),
            coeffs=zf["coeffs"].copy(),
            lam=meta["lam"],
            norm_sq=meta["norm_sq"],
        )
    if kind not in ("onorma", "monorma"):
        raise DataError(f"{path}: unknown model kind {kind!r}")
    # only the kernel(s), norm and weight fields differ by kind
    if kind == "onorma":
        cls, kernels, norms = ONORMA, kernel_from_dict(meta["kernel"]), [meta["norm_sq"]]
        hyper, delta = {}, None
    else:
        cls, kernels = MONORMA, [kernel_from_dict(k) for k in meta["kernels"]]
        norms, hyper, delta = meta["gamma"], {"r": meta["r"]}, meta["delta"]
    tr = meta["truncation"]
    learner = cls(
        kernels,
        loss=loss_from_name(meta["loss"]),
        lam=meta["lam"],
        eta0=meta["eta0"],
        truncation=None if tr is None else TruncationSchedule(**tr),
        **hyper,
    )
    learner.restore(
        zf["support"], zf["coeffs"], zf["times"], meta["input_dim"], meta["t"], norms, delta
    )
    return learner
