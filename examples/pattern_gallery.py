"""Render one exemplar chart per timing pattern (the paper's Fig. 3).

Generates a small corpus, picks one project per pattern, prints the
ASCII gallery and writes an SVG per pattern next to this script.

Run:  python examples/pattern_gallery.py
"""

from pathlib import Path

from repro.corpus import generate_corpus
from repro.metrics import ProjectProfile
from repro.patterns.taxonomy import REAL_PATTERNS, family_of
from repro.viz import ascii_chart, svg_chart


def main() -> None:
    corpus = generate_corpus(seed=20250325)
    by_pattern = corpus.by_pattern()
    out_dir = Path(__file__).parent

    for pattern in REAL_PATTERNS:
        exemplar = next(p for p in by_pattern[pattern]
                        if not p.is_exception)
        profile = ProjectProfile.from_history(exemplar.history)
        family = family_of(pattern)
        title = (f"{pattern.value}  [{family.value}]  "
                 f"— {exemplar.name}, {profile.pup_months} months, "
                 f"{profile.total_activity} affected attributes")
        print(ascii_chart(profile.heartbeat, source=exemplar.source,
                          width=64, height=12, title=title))
        print()

        slug = pattern.value.lower().replace(" ", "_")
        svg_path = out_dir / f"gallery_{slug}.svg"
        svg_path.write_text(svg_chart(profile.heartbeat,
                                      source=exemplar.source,
                                      title=pattern.value))
    print(f"SVG charts written next to {__file__}")


if __name__ == "__main__":
    main()
