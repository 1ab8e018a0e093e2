"""DOORPING adapted to graph condensation.

DOORPING (Liu et al., NDSS 2023) attacks dataset *distillation* for images by
learning a universal trigger that is re-optimised while the distilled dataset
is being produced.  The graph adaptation used in the BGC paper's Figure 4
keeps the two distinguishing choices of DOORPING — a *universal* (shared)
trigger and updates interleaved with condensation — and borrows BGC's
representative-node selection for the poisoned set.  It is therefore BGC's
loop with one change, the generator: a
:class:`~repro.attack.trigger.UniversalTriggerGenerator`.  Because the
trigger is not node-adaptive it transfers less well than BGC's generator,
which is the gap Figure 4 illustrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attack.bgc import BGC, bgc_config
from repro.attack.selection import SelectionConfig
from repro.attack.trigger import TriggerConfig, UniversalTriggerGenerator
from repro.exceptions import AttackError
from repro.registry import ATTACKS
from repro.utils.validation import CLASS_INDEX, at_least, check_fields, checked, optional, real


@dataclass
class DoorpingConfig:
    """Hyperparameters of the DOORPING adaptation."""

    target_class: int = checked(0, CLASS_INDEX)
    poison_ratio: float | None = checked(0.1, optional(real(above=0, at_most=1)))
    poison_number: int | None = checked(None, optional(at_least(1)))
    epochs: int = checked(30, at_least(1))
    trigger_steps: int = checked(2, at_least(0))
    update_batch_size: int = checked(12, at_least(1))
    max_neighbors: int = checked(10, at_least(0))
    surrogate_steps: int = checked(20, at_least(1))
    surrogate_lr: float = checked(0.05, real(above=0))
    surrogate_hops: int = checked(2, at_least(1))
    trigger: TriggerConfig = field(default_factory=TriggerConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)

    def __post_init__(self) -> None:
        check_fields(self, AttackError)
        if self.poison_ratio is None and self.poison_number is None:
            raise AttackError("one of poison_ratio or poison_number must be set")


@ATTACKS.register("doorping", config_cls=DoorpingConfig)
class DoorpingAttack(BGC):
    """BGC's interleaved loop refreshing one universal trigger.

    ``trigger_steps`` is BGC's ``generator_steps``; every other field keeps
    its BGC meaning.
    """

    generator_cls = UniversalTriggerGenerator

    def __init__(self, config: DoorpingConfig | None = None) -> None:
        config = config or DoorpingConfig()
        super().__init__(bgc_config(config, generator_steps=config.trigger_steps))
