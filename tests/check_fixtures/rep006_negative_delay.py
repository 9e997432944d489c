"""Seeded REP006 violations: provably negative delays.

Never imported — parsed by the linter tests only.
"""


def reschedule_in_past(sim, handler):
    sim.schedule(-1.0, handler)  # EXPECT REP006


def negative_int_delay(sim, handler):
    sim.schedule(-3, handler, "tag")  # EXPECT REP006


def process_sleeps_into_past():
    yield -5.0  # EXPECT REP006


def process_sleeps_forward(sim, handler):
    yield 5.0
    sim.schedule(0.0, handler)
