"""Impersonator pilot precoding strategies.

Eve transmits a manipulated pilot sequence so that the verifier's estimated
angle points at the victim instead of at her.  Three strategies of
increasing side information:

  * random     - Eve only knows the frame timing; unit-modulus random phases.
  * code-based - Eve knows the combiners, the victim pilot, and the victim
                 angle; she pre-multiplies by the verifier's beam gain toward
                 the victim.
  * location-based - Eve additionally knows her own angle and inverts her own
                 beam gain per probe, so the received signal is (up to scale)
                 identical to the victim's.

Every strategy returns a unit-energy PilotSequence together with the energy
scale alpha it applied to meet that constraint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .signal_model import PilotSequence, ProbeSchedule


class AttackKind(enum.Enum):
    NONE = "none"
    RANDOM = "random"
    CODE_BASED = "code-based"
    LOCATION_BASED = "location-based"

    @classmethod
    def from_string(cls, name: str) -> "AttackKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown attack {name!r}; expected one of: {valid}")


class DegenerateAttackError(ValueError):
    """The precoded sequence has zero energy and cannot be normalized."""


# A beam whose gain toward Eve falls below this fraction of the N^2 peak is
# treated as an exact null: Eve sends nothing on it instead of a near-infinite
# symbol that normalization would squash anyway.
NULL_FLOOR_REL = 1e-12


@dataclass(frozen=True)
class AttackContext:
    """Inputs available to Eve when precoding her pilots."""

    schedule: ProbeSchedule
    alice_pilots: PilotSequence
    target_aoa_deg: float
    eve_aoa_deg: float | None = None


def random_attack(t_len: int, rng: np.random.Generator) -> PilotSequence:
    """Unit-modulus symbols with i.i.d. uniform phases, s_t = e^{j phi_t}/sqrt(T)."""
    if t_len < 1:
        raise ValueError("t_len must be >= 1")
    phases = rng.uniform(0.0, 2.0 * np.pi, t_len)
    return PilotSequence(np.exp(1j * phases) / np.sqrt(t_len))


def code_based_attack(ctx: AttackContext) -> tuple[PilotSequence, float]:
    """Pre-multiply the victim pilot by the verifier's beam gain toward the
    victim angle, normalized to unit energy; returns (pilots, alpha).

    The verifier then sees a signal carrying the product of its beam patterns
    toward Eve and toward the victim, creating a second likelihood minimum at
    the victim's angle.
    """
    gains = ctx.schedule.beam_gains(ctx.target_aoa_deg)
    raw = gains * ctx.alice_pilots.symbols
    energy = float(np.sum(np.abs(raw) ** 2))
    n = ctx.schedule.num_antennas
    if energy < NULL_FLOOR_REL * n * n:
        raise DegenerateAttackError(
            "beam gains toward the target are identically zero; cannot normalize"
        )
    alpha = energy ** -0.5
    return PilotSequence(alpha * raw), alpha


def location_based_attack(ctx: AttackContext) -> tuple[PilotSequence, float]:
    """Invert Eve's own beam gain per probe so the verifier receives the
    victim's signal scaled by alpha; returns (pilots, alpha).

    A probe whose beam is (effectively) null toward Eve but not toward the
    victim would require unbounded power to invert.  The unit-energy limit of
    the precoding formula then concentrates all of Eve's energy on those null
    probes, the normalization collapses to zero, and the verifier receives
    essentially nothing: the attack fails.  Null probes where the victim's
    gain also vanishes contribute a zero symbol and are harmless.
    """
    if ctx.eve_aoa_deg is None:
        raise ValueError("location-based attack requires eve_aoa_deg")
    g_target = ctx.schedule.beam_gains(ctx.target_aoa_deg)
    g_eve = ctx.schedule.beam_gains(ctx.eve_aoa_deg)
    n = ctx.schedule.num_antennas
    floor = NULL_FLOOR_REL * n * n
    eve_null = np.abs(g_eve) ** 2 < floor
    blowup = eve_null & (np.abs(g_target) ** 2 >= floor)
    if blowup.any():
        raw = np.zeros(ctx.schedule.num_probes, dtype=complex)
        raw[blowup] = g_target[blowup] * ctx.alice_pilots.symbols[blowup]
        return PilotSequence(raw / np.sqrt(np.sum(np.abs(raw) ** 2))), 0.0
    live = ~eve_null
    raw = np.zeros(ctx.schedule.num_probes, dtype=complex)
    raw[live] = (
        g_target[live] * np.conj(g_eve[live]) / np.abs(g_eve[live]) ** 2
    ) * ctx.alice_pilots.symbols[live]
    energy = float(np.sum(np.abs(raw) ** 2))
    if energy <= 0.0:
        raise DegenerateAttackError(
            "beam gains toward the target are identically zero; cannot normalize"
        )
    alpha = energy ** -0.5
    return PilotSequence(alpha * raw), alpha


def attack_pilots(
    kind: AttackKind, ctx: AttackContext, rng: np.random.Generator | None = None
) -> tuple[PilotSequence, float]:
    """Dispatch to the pilot constructor for ``kind``; returns (pilots, alpha).

    NONE returns the victim's pilot unmodified (the baseline no-attack curve);
    alpha is 1 for NONE and RANDOM.
    """
    if kind is AttackKind.NONE:
        return ctx.alice_pilots, 1.0
    if kind is AttackKind.RANDOM:
        if rng is None:
            raise ValueError("random attack requires an RNG")
        return random_attack(ctx.schedule.num_probes, rng), 1.0
    if kind is AttackKind.CODE_BASED:
        return code_based_attack(ctx)
    if kind is AttackKind.LOCATION_BASED:
        return location_based_attack(ctx)
    raise ValueError(f"unhandled attack kind {kind!r}")
