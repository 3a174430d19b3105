def handle(sim, command, work):
    sim.process(work(command))
