#!/usr/bin/env python
"""Receiver-driven layered reliable multicast (Section IX-C).

The paper's sketch, running: a source splits its transmission into three
substreams on separate multicast groups (each layer doubling the rate);
reliable delivery is per-layer SRM. One receiver sits behind a
bottleneck link that can only carry the base layer plus a little; its
controller notices the queue-overflow losses and unsubscribes the upper
layers, while a well-connected receiver keeps all three. No sender
involvement, no per-receiver state at the source — congestion control by
group membership.

Run:  python examples/layered_multicast.py
"""

from repro.core.layered import LayeredReceiver, LayeredSource, make_layers
from repro.sim.rng import RandomSource
from repro.topology import chain


def main() -> None:
    # Topology: source -- r1 -- [bottleneck] -- r2 -- far receiver,
    # with the near receiver at r1 (upstream of the bottleneck).
    network = chain(5).build(delivery="hop")
    network.trace.keep = None
    bottleneck = network.set_link_bandwidth(1, 2, 300.0, queue_limit=3)

    layers = make_layers(network, 3, base_interval=8.0)
    rates = [1000.0 / layer.packet_interval for layer in layers]
    print("layers (size-units per time-unit):",
          [f"L{i}={rate:.0f}" for i, rate in enumerate(rates)],
          f"| bottleneck carries 300")

    source = LayeredSource(network, 0, layers, rng=RandomSource(1))
    near = LayeredReceiver(network, 1, layers, rng=RandomSource(3),
                           start_layers=3, decision_interval=40.0)
    far = LayeredReceiver(network, 4, layers, rng=RandomSource(2),
                          start_layers=3, decision_interval=40.0)
    near.start()
    far.start()
    source.start()

    for checkpoint in (200.0, 600.0, 1200.0):
        network.run(until=checkpoint)
        print(f"t={checkpoint:6.0f}: far receiver subscribed to "
              f"{far.subscribed} layer(s) "
              f"(drops so far: {far.drops_performed}); near receiver "
              f"{near.subscribed}; bottleneck tail-drops "
              f"{bottleneck.queue_drops}")

    source.stop()
    near.stop()
    far.stop()
    network.run(until=2500.0)  # drain recovery

    print()
    print("final state:")
    print(f"  near receiver: {near.subscribed}/3 layers, "
          f"{near.drops_performed} drops -- the unconstrained path "
          f"keeps everything")
    print(f"  far receiver:  {far.subscribed}/3 layers, "
          f"{far.drops_performed} drops -- settled at what its "
          f"bottleneck sustains")
    base = far.agents[0]
    high = base.reception.highest_seq(0, base.current_page)
    from repro.core.names import AduName
    missing = [seq for seq in range(1, high + 1)
               if not base.store.have(AduName(0, base.current_page, seq))]
    print(f"  far receiver's base layer: {high - len(missing)}/{high} "
          f"packets held -- per-layer SRM kept the layers it subscribes "
          f"to reliable")
    assert near.subscribed == 3
    assert far.subscribed < 3


if __name__ == "__main__":
    main()
