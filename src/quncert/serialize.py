"""JSON file formats for states and wavefunctions.

DensityMatrix: {"type": "density", "dim": n, "re": [[..]], "im": [[..]]}
CQState:       {"type": "cq", "outcomes": [{"label": s, "state": {...}}]}
Wavefunction:  {"type": "wavefunction", "q0": float, "dq": float, "d": int,
                "re": [[..]], "im": [[..]]}  (N x d sample arrays)

Readers reject non-finite matrix entries (NaN or Infinity in "re" or "im")
before forming a matrix, check each state's invariants (its diagnostics(),
through _checked) and raise StateFormatError naming the violated one and
its measured value; every other error that malformed content raises while it is
read (KeyError, TypeError, ValueError, AttributeError) is mapped to
StateFormatError in one place, _reading. A density's declared "dim" and a
wavefunction's declared "d" must match the data. save_state writes
atomically (temp file + rename), like the CLI.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile

import numpy as np

from .qstate import CQState, DensityMatrix, GridWaveFunction

__all__ = ["StateFormatError", "load_state", "save_state", "loads_state", "atomic_write"]


class StateFormatError(ValueError):
    pass


@contextlib.contextmanager
def _reading(what: str):
    """The one map from what malformed JSON content raises when a reader
    indexes, converts or calls it (KeyError, TypeError, ValueError,
    AttributeError) to StateFormatError naming `what`; a StateFormatError
    raised inside passes through unchanged."""
    try:
        yield
    except StateFormatError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise StateFormatError(f"bad {what} ({exc})") from exc


def _matrix_from(obj, what: str) -> np.ndarray:
    with _reading(f"{what} matrix data"):
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != im.shape:
        raise StateFormatError(f"{what}: re/im shape mismatch")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise StateFormatError(f"{what}: non-finite entries in re or im")
    return re + 1j * im


def _checked(state, what: str):
    for name, (ok, measured) in state.diagnostics().items():
        if not ok:
            raise StateFormatError(f"{what} violates {name} (measured {measured})")
    return state


# each kind of state: what its fields outside its matrix data are called, and
# what the state is called when it violates an invariant
_KINDS = {"density": ("density matrix", "density matrix"), "cq": ("cq outcome list", "cq state"),
          "wavefunction": ("wavefunction header", "wavefunction")}


def loads_state(text: str):
    obj = json.loads(text)
    with _reading("state file"):
        kind = obj.get("type")
        if kind not in _KINDS:
            raise StateFormatError(f"unknown or missing type tag {kind!r}")
    fields, what = _KINDS[kind]
    with _reading(fields):
        if kind == "density":
            state = DensityMatrix(_matrix_from(obj, "density matrix"))
            if "dim" in obj and int(obj["dim"]) != state.dim:
                raise StateFormatError(f"declared dim {obj['dim']} != matrix dim {state.dim}")
        elif kind == "cq":
            state = CQState((o["label"], _matrix_from(o["state"], f"outcome {o['label']}"))
                            for o in obj["outcomes"])
        else:
            state = GridWaveFunction(float(obj["q0"]), float(obj["dq"]),
                                     _matrix_from(obj, "wavefunction"))
            if "d" in obj and int(obj["d"]) != state.memory_dim:
                raise StateFormatError("declared memory dimension does not match samples")
        return _checked(state, what)


def load_state(path):
    with open(path, encoding="utf-8") as fh:
        return loads_state(fh.read())


def atomic_write(path, text: str) -> None:
    """Write text to path through a temp file in the same directory and a
    rename, so path holds either its old content or all of text."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".quncert-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _split(mat: np.ndarray):
    mat = np.asarray(mat)
    return mat.real.tolist(), mat.imag.tolist()


def save_state(obj, path) -> None:
    if isinstance(obj, DensityMatrix):
        re, im = _split(obj.mat)
        payload = {"type": "density", "dim": obj.dim, "re": re, "im": im}
    elif isinstance(obj, CQState):
        res, ims = _split(obj.ops)
        payload = {"type": "cq", "outcomes": [
            {"label": lbl, "state": {"dim": obj.dim, "re": re, "im": im}}
            for lbl, re, im in zip(obj.labels, res, ims)]}
    elif isinstance(obj, GridWaveFunction):
        re, im = _split(obj.samples)
        payload = {"type": "wavefunction", "q0": obj.q0, "dq": obj.dq,
                   "d": obj.memory_dim, "re": re, "im": im}
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    atomic_write(path, json.dumps(payload))
