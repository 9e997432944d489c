"""Seeds REP103: un-translated units flowing into ns sinks or converters."""


def callback() -> None:
    pass


def schedules_cycles(sim, delay_cycles: float) -> None:
    sim.schedule(delay_cycles, callback)  # EXPECT REP103


def stalls_instructions(thread, work_instructions: float):
    yield from thread.stall(work_instructions)  # EXPECT REP103


def converts_wrong_way(config, elapsed_ns: float) -> float:
    return config.cpu.cycles_to_ns(elapsed_ns)  # EXPECT REP103


def yields_cycles(delay_cycles: float):
    # A process's yielded number is a nanosecond delay.
    yield delay_cycles  # EXPECT REP103


def clean_schedule(sim, delay_ns: float) -> None:
    sim.schedule(delay_ns, callback)


def clean_translated(sim, config, delay_cycles: float) -> None:
    # Routing through the sanctioned converter changes the unit.
    sim.schedule(config.cpu.cycles_to_ns(delay_cycles), callback)


def clean_converter_input(config, lookup_cycles: float) -> float:
    return config.cpu.cycles_to_ns(lookup_cycles)


def clean_yields(config, delay_ns: float, delay_cycles: float):
    yield delay_ns
    yield config.cpu.cycles_to_ns(delay_cycles)
