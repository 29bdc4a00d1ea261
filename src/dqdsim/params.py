"""Spin-parameter types shared by the device layer and the dynamics stack."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class SpinParams:
    """Zeeman splittings and exchange of the two dot ground states.

    The sole interface between electrostatics and spin dynamics. Frequencies
    are stored in Hz; GHz accessors exist for reporting.
    """

    e_zl_hz: float
    e_zr_hz: float
    j_hz: float
    v_m_mv: float | None = None        # provenance: middle-gate bias

    def __post_init__(self):
        if self.j_hz < 0:
            raise ConfigurationError("exchange J must be >= 0")
        if not np.isfinite([self.e_zl_hz, self.e_zr_hz, self.j_hz]).all():
            raise ConfigurationError("spin parameters must be finite")

    @property
    def e_zl_ghz(self) -> float:
        return self.e_zl_hz / 1e9

    @property
    def e_zr_ghz(self) -> float:
        return self.e_zr_hz / 1e9


class ParamsTable:
    """SpinParams as a function of the middle-gate bias V_M.

    Interpolation follows the shape of the calibrated device curves:
    log-linear in J (exchange is near-exponential in V_M) and linear in the
    Zeeman splittings. Used both for device-derived tables and for
    paper-anchored direct tables.
    """

    def __init__(self, v_m_mv, e_zl_hz, e_zr_hz, j_hz):
        v = np.asarray(v_m_mv, dtype=float)
        order = np.argsort(v)
        self.v_m_mv = v[order]
        self.e_zl_hz = np.asarray(e_zl_hz, dtype=float)[order]
        self.e_zr_hz = np.asarray(e_zr_hz, dtype=float)[order]
        self.j_hz = np.asarray(j_hz, dtype=float)[order]
        if self.v_m_mv.size < 1:
            raise ConfigurationError("params table needs at least one node")
        if np.any(self.j_hz <= 0):
            raise ConfigurationError("params table requires J > 0 for log interpolation")

    def __call__(self, v_m_mv: float) -> SpinParams:
        return SpinParams(
            e_zl_hz=float(np.interp(v_m_mv, self.v_m_mv, self.e_zl_hz)),
            e_zr_hz=float(np.interp(v_m_mv, self.v_m_mv, self.e_zr_hz)),
            j_hz=float(np.exp(np.interp(v_m_mv, self.v_m_mv, np.log(self.j_hz)))),
            v_m_mv=float(v_m_mv),
        )

    def j_of_vm(self, v_m_mv) -> np.ndarray:
        return np.exp(np.interp(np.asarray(v_m_mv, dtype=float),
                                self.v_m_mv, np.log(self.j_hz)))


def paper_table() -> ParamsTable:
    """Reference spin-parameter table for device-independent runs.

    Nodes at V_M = 400/408/410/412 mV; the Zeeman splittings at 410/412 are
    held at the 408 values (their drift over this range is a few MHz and is
    not resolved by the anchors).
    """
    return ParamsTable(
        v_m_mv=[400.0, 408.0, 410.0, 412.0],
        e_zl_hz=[18.309e9, 18.312e9, 18.312e9, 18.312e9],
        e_zr_hz=[18.453e9, 18.448e9, 18.448e9, 18.448e9],
        j_hz=[75.6e3, 19.3e6, 69.5e6, 266.1e6],
    )
