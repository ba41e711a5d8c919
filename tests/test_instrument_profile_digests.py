"""Pinned instrumentation profiles: the inputs Table 1 is built from.

Each case runs ``profile_kernel`` on one kernel at scale 0.1 in one probe
style and pins the baseline and instrumented cycle counts, the number of
probes fired, and a SHA-256 of ``repr(probe_times)``.  Unroll discounts
charge fractional cycles, so the probe timeline depends on the exact order
of float additions; any change to the passes, the optimizer or the
interpreter's cycle accounting moves a pin.
"""

import functools
import hashlib

import pytest

from repro.instrument import CACHELINE_STYLE, RDTSC_STYLE, profile_kernel
from repro.instrument.kernels import kernel_by_name

SCALE = 0.1

#: (kernel, style) -> (base_cycles, instrumented_cycles, probes_fired,
#: sha256 of repr(probe_times)).
PINS = {
    ("radix", CACHELINE_STYLE): (
        31906, 31189, 96,
        "c690d99faffc86125b057f58aaf60fbe3dc81cde9b33a37f2e537f433935f705",
    ),
    ("radix", RDTSC_STYLE): (
        31906, 41018, 157,
        "5e8fd4209091db6e4c4990a064c8a9424e35e1be0bb625eab69a33194647fc17",
    ),
    ("fft", CACHELINE_STYLE): (
        47349, 47348, 69,
        "d6aa5965f8434349aeb9ec33019cfeb2b1cef315606d6afa8f2e7ac9c0bd4787",
    ),
    ("fft", RDTSC_STYLE): (
        47349, 53855, 180,
        "97d2fba7da16a5bd35a4545b0c48e4b276a023aa6725ed6885c042e2fadb0a42",
    ),
    ("lu-nc", CACHELINE_STYLE): (
        4405, 4321, 10,
        "5ef7c6a5b935c210e3441232fc841db6f7a7f237a0f53c582482ec121492bed7",
    ),
    ("lu-nc", RDTSC_STYLE): (
        4405, 5493, 20,
        "1982f5071df5ee22c64d9fd0a650f2946ffc8d2702188416223aa6359a956fdd",
    ),
    ("histogram", CACHELINE_STYLE): (
        23006, 22328, 81,
        "3b5ef8275a55f7b8e249de420e35be90dfd64fef0264f3452ce5e8aa4d143362",
    ),
    ("histogram", RDTSC_STYLE): (
        23006, 30338, 111,
        "b780b972caf8538b0883766c9100d286a8ee495e501771353ada8dccc411a05f",
    ),
    ("kmeans", CACHELINE_STYLE): (
        9164, 9669, 277,
        "809c9e0169acf2e56fb108e57090522a4db0f4affb7cb21030d359bce2571cdf",
    ),
    ("kmeans", RDTSC_STYLE): (
        9164, 10966, 36,
        "fba40acd75ff713df94c6ea13f0682c5a5bd55c909bd5fd24f29a058233631fa",
    ),
    ("canneal", CACHELINE_STYLE): (
        56287, 58809, 1261,
        "a8c7520c5ce946e4860fd44a96ce30387d2724175b8c1932c90e9a209ca50463",
    ),
    ("canneal", RDTSC_STYLE): (
        56287, 65109, 210,
        "f02642c0caea9ec5ea14a9ebfe52aeaf9357fb74aa9e7fc0cf9c4f722627087e",
    ),
}


@functools.lru_cache(maxsize=None)
def profile(kernel, style):
    spec = kernel_by_name(kernel)
    return profile_kernel(lambda: spec.build(scale=SCALE), style)


@pytest.mark.parametrize("kernel,style", sorted(PINS))
def test_profile_pin(kernel, style):
    p = profile(kernel, style)
    probe_digest = hashlib.sha256(repr(p.probe_times).encode()).hexdigest()
    assert (
        p.base_cycles, p.instrumented_cycles, p.probes_fired, probe_digest,
    ) == PINS[kernel, style]


def test_pins_cover_fractional_probe_times():
    """The timeline hashes only guard float accumulation order if some
    pinned probe fires at a fractional cycle."""
    times = profile("radix", CACHELINE_STYLE).probe_times
    assert any(t != int(t) for t in times)
