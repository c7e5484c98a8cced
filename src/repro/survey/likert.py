"""Survey scales, as the paper's table captions define them."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    """An integer response scale with labeled anchors."""

    name: str
    low: int
    high: int
    labels: tuple[str, ...] = ()

    def validate(self, value: int) -> int:
        if not isinstance(value, int):
            raise TypeError(f"{self.name} responses must be int, got {value!r}")
        if not (self.low <= value <= self.high):
            raise ValueError(
                f"{self.name} response {value} outside [{self.low}, {self.high}]"
            )
        return value


#: Table I: "Level of Proficiency (0 to 10 with 10 being highest)".
PROFICIENCY_SCALE = Scale(name="proficiency", low=0, high=10)

#: Table II: "1: less than 30 minutes, 2: 30 minutes to 2 hours,
#: 3: 2 hours to 4 hours, 4: more than 4 hours".
TIME_SCALE = Scale(
    name="time-to-complete",
    low=1,
    high=4,
    labels=(
        "less than 30 minutes",
        "30 minutes to 2 hours",
        "2 hours to 4 hours",
        "more than 4 hours",
    ),
)

#: Table III: "1: not useful, 2: somewhat useful, 3: useful,
#: 4: very useful".
USEFULNESS_SCALE = Scale(
    name="usefulness",
    low=1,
    high=4,
    labels=("not useful", "somewhat useful", "useful", "very useful"),
)

#: Table IV's answer categories (lowest level to introduce Hadoop MR).
YEAR_LEVELS = ("Senior", "Junior", "Sophomore", "Freshman")
