"""The gated echo the tests feed the receiver, built one way."""

from ddradar import ComplexSignal, add_noise, apply_channel, apply_receive_gating, synthesize_discrete


def echo(code, params, truths, snr_db=None, seed=0):
    """Gated echo of one or more targets, with noise unless snr_db is None."""
    r = ComplexSignal(sum(apply_channel(code, params, truth).samples for truth in truths))
    if snr_db is not None:
        r = add_noise(r, snr_db, seed, params, ref_energy=synthesize_discrete(code, params).energy)
    return apply_receive_gating(r, params)
