"""The movie catalog behind all §V/§VI experiments.

One neutral :class:`MovieRecord` representation; the :mod:`repro.data.imdb`
and :mod:`repro.data.mpeg7` renderers turn records into the two sources'
XML with their respective conventions.  Records carry an ``rwo`` id — the
ground-truth real-world-object identity used by answer-quality measures
and by tests that check which pairs *should* match.

Selections:

* :func:`confusing_mpeg7_six` / :func:`sequels_six_imdb` — the Table I
  workload: two movies per franchise in each source, exactly one shared
  rwo per franchise.
* :func:`confusing_imdb_records` — the Figure 5 x-axis: up to 60
  franchise-related entries (films, sequels, TV shows, synthesized
  variants whose titles extend the franchise tokens).
* :func:`typical_mpeg7_six` / :func:`typical_imdb_records` — the typical-
  conditions workload: distinct 1995 movies, two shared rwos.

Genre assignments are calibrated so the paper's rule-effectiveness
ordering emerges (see DESIGN.md): genres overlap across the action
franchises (genre rule alone keeps them confusable) but separate Jaws
(Horror) and the 1966 TV series (Crime) from the rest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence


@dataclass(frozen=True)
class MovieRecord:
    """Source-neutral movie metadata."""

    title: str
    year: int
    genres: tuple[str, ...]
    directors: tuple[str, ...]
    cast: tuple[str, ...] = ()
    runtime: Optional[int] = None
    kind: str = "film"
    rwo: str = ""  # ground-truth identity; same rwo ⇔ same real movie


# -- the franchises the paper names (§V) ------------------------------------

JAWS_FILMS = (
    MovieRecord("Jaws", 1975, ("Horror", "Thriller"),
                ("Steven Spielberg",), ("Roy Scheider", "Richard Dreyfuss"),
                124, "film", "jaws-1975"),
    MovieRecord("Jaws 2", 1978, ("Horror", "Thriller"),
                ("Jeannot Szwarc",), ("Roy Scheider", "Lorraine Gary"),
                116, "film", "jaws-2-1978"),
    MovieRecord("Jaws 3-D", 1983, ("Thriller",),
                ("Joe Alves",), ("Dennis Quaid", "Bess Armstrong"),
                99, "film", "jaws-3d-1983"),
    MovieRecord("Jaws: The Revenge", 1987, ("Thriller",),
                ("Joseph Sargent",), ("Lorraine Gary", "Lance Guest"),
                89, "film", "jaws-revenge-1987"),
)

DIE_HARD_FILMS = (
    MovieRecord("Die Hard", 1988, ("Action", "Thriller"),
                ("John McTiernan",), ("Bruce Willis", "Alan Rickman"),
                132, "film", "die-hard-1988"),
    MovieRecord("Die Hard 2", 1990, ("Action", "Thriller"),
                ("Renny Harlin",), ("Bruce Willis", "Bonnie Bedelia"),
                124, "film", "die-hard-2-1990"),
    MovieRecord("Die Hard: With a Vengeance", 1995, ("Action", "Thriller"),
                ("John McTiernan",), ("Bruce Willis", "Samuel L. Jackson"),
                128, "film", "die-hard-3-1995"),
)

MISSION_IMPOSSIBLE_ENTRIES = (
    MovieRecord("Mission: Impossible", 1996, ("Action", "Adventure", "Thriller"),
                ("Brian De Palma",), ("Tom Cruise", "Jon Voight"),
                110, "film", "mi-1996"),
    MovieRecord("Mission: Impossible II", 2000, ("Action", "Adventure", "Thriller"),
                ("John Woo",), ("Tom Cruise", "Thandie Newton"),
                123, "film", "mi-2-2000"),
    MovieRecord("Mission: Impossible", 1966, ("Crime",),
                ("Bruce Geller",), ("Peter Graves", "Barbara Bain"),
                None, "tv-series", "mi-tv-1966"),
    MovieRecord("Mission: Impossible", 1988, ("Action", "Adventure"),
                ("Bruce Geller",), ("Peter Graves", "Thaao Penghlis"),
                None, "tv-series", "mi-tv-1988"),
)

FRANCHISES: dict[str, tuple[MovieRecord, ...]] = {
    "Jaws": JAWS_FILMS,
    "Die Hard": DIE_HARD_FILMS,
    "Mission: Impossible": MISSION_IMPOSSIBLE_ENTRIES,
}

# Variant templates used to synthesize additional confusable IMDB entries.
# Every synthesized title *extends* the franchise title tokens, so the
# title rule keeps it confusable with the franchise base title (that is
# what "sequels, TV-shows, etc. with … in the title" means in §V).
_VARIANT_TEMPLATES = (
    ("{base}: The Video Game", "video-game", ("Action",)),
    ("{base}: The Series", "tv-series", ("Action", "Adventure")),
    ("The Making of {base}", "documentary", ("Documentary",)),
    ("{base} Special Edition", "video", ("Action", "Thriller")),
    ("{base}: Behind the Scenes", "documentary", ("Documentary",)),
    ("{base} Reloaded", "video", ("Action",)),
)

_VARIANT_DIRECTORS = (
    "Alan Smithee", "Rick Baxter", "Nora Klein",
    "Paolo Venditti", "Greta Hollis", "Marcus Albright",
)


def confusing_mpeg7_six() -> list[MovieRecord]:
    """The MPEG-7 side of the confusing experiments: two movies per
    franchise (the paper's "2 'Mission Impossible' sequels, 2 'Die Hard'
    sequels, and 2 'Jaws' sequels")."""
    return [
        JAWS_FILMS[0], JAWS_FILMS[1],
        DIE_HARD_FILMS[0], DIE_HARD_FILMS[1],
        MISSION_IMPOSSIBLE_ENTRIES[0], MISSION_IMPOSSIBLE_ENTRIES[1],
    ]


def sequels_six_imdb() -> list[MovieRecord]:
    """The IMDB side of the Table I workload: two entries per franchise,
    exactly one sharing its rwo with :func:`confusing_mpeg7_six`."""
    return [
        JAWS_FILMS[0],            # shared rwo: jaws-1975
        JAWS_FILMS[3],            # Jaws: The Revenge
        DIE_HARD_FILMS[0],        # shared rwo: die-hard-1988
        DIE_HARD_FILMS[2],        # Die Hard: With a Vengeance
        MISSION_IMPOSSIBLE_ENTRIES[0],  # shared rwo: mi-1996
        MISSION_IMPOSSIBLE_ENTRIES[2],  # the 1966 TV series (Crime)
    ]


def confusing_imdb_records(count: int) -> list[MovieRecord]:
    """Up to ``count`` confusable IMDB entries for the Figure 5 sweep.

    Round-robin over the three franchises: first the real entries, then
    synthesized variants.  Variant years alternate between *anchor* years
    (shared with a real film, so the year rule keeps the pair possible)
    and fresh years (so the year rule prunes it) — this is what separates
    the figure's two series.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    franchise_names = list(FRANCHISES)
    queues: dict[str, list[MovieRecord]] = {
        name: list(entries) for name, entries in FRANCHISES.items()
    }
    synthesized: dict[str, int] = {name: 0 for name in franchise_names}
    records: list[MovieRecord] = []
    position = 0
    while len(records) < count:
        name = franchise_names[position % len(franchise_names)]
        position += 1
        if queues[name]:
            records.append(queues[name].pop(0))
            continue
        index = synthesized[name]
        synthesized[name] += 1
        template, kind, genres = _VARIANT_TEMPLATES[index % len(_VARIANT_TEMPLATES)]
        anchors = [entry.year for entry in FRANCHISES[name][:2]]
        if index % 2 == 0:
            year = anchors[index % len(anchors)]
        else:
            year = 2001 + (index * 3 + position) % 7 + (index // 2)
        director = _VARIANT_DIRECTORS[index % len(_VARIANT_DIRECTORS)]
        records.append(
            MovieRecord(
                template.format(base=name),
                year,
                genres,
                (director,),
                (),
                None,
                kind,
                f"{name.lower().replace(' ', '-').replace(':', '')}-variant-{index}",
            )
        )
    return records


# -- typical conditions (distinct 1995 movies) --------------------------------

_REAL_1995 = (
    ("Braveheart", ("Action", "Drama"), ("Mel Gibson",), ("Mel Gibson", "Sophie Marceau"), 178),
    ("Toy Story", ("Animation", "Comedy"), ("John Lasseter",), ("Tom Hanks", "Tim Allen"), 81),
    ("Se7en", ("Crime", "Thriller"), ("David Fincher",), ("Brad Pitt", "Morgan Freeman"), 127),
    ("Heat", ("Crime", "Drama"), ("Michael Mann",), ("Al Pacino", "Robert De Niro"), 170),
    ("Casino", ("Crime", "Drama"), ("Martin Scorsese",), ("Robert De Niro", "Sharon Stone"), 178),
    ("GoldenEye", ("Action", "Adventure"), ("Martin Campbell",), ("Pierce Brosnan", "Sean Bean"), 130),
    ("Apollo 13", ("Adventure", "Drama"), ("Ron Howard",), ("Tom Hanks", "Kevin Bacon"), 140),
    ("Jumanji", ("Adventure", "Family"), ("Joe Johnston",), ("Robin Williams", "Kirsten Dunst"), 104),
    ("Twelve Monkeys", ("Mystery", "Thriller"), ("Terry Gilliam",), ("Bruce Willis", "Brad Pitt"), 129),
    ("The Usual Suspects", ("Crime", "Mystery"), ("Bryan Singer",), ("Kevin Spacey", "Gabriel Byrne"), 106),
    ("Waterworld", ("Action", "Adventure"), ("Kevin Reynolds",), ("Kevin Costner", "Jeanne Tripplehorn"), 135),
    ("Babe", ("Comedy", "Family"), ("Chris Noonan",), ("James Cromwell", "Magda Szubanski"), 91),
    ("Casper", ("Comedy", "Family"), ("Brad Silberling",), ("Christina Ricci", "Bill Pullman"), 100),
    ("Outbreak", ("Action", "Drama"), ("Wolfgang Petersen",), ("Dustin Hoffman", "Rene Russo"), 127),
    ("Bad Boys", ("Action", "Comedy"), ("Michael Bay",), ("Will Smith", "Martin Lawrence"), 119),
    ("Crimson Tide", ("Action", "Drama"), ("Tony Scott",), ("Denzel Washington", "Gene Hackman"), 116),
    ("Get Shorty", ("Comedy", "Crime"), ("Barry Sonnenfeld",), ("John Travolta", "Gene Hackman"), 105),
    ("Rob Roy", ("Adventure", "Drama"), ("Michael Caton-Jones",), ("Liam Neeson", "Jessica Lange"), 139),
    ("Species", ("Horror", "Sci-Fi"), ("Roger Donaldson",), ("Ben Kingsley", "Natasha Henstridge"), 108),
    ("Sudden Death", ("Action", "Thriller"), ("Peter Hyams",), ("Jean-Claude Van Damme", "Powers Boothe"), 111),
)

# Synthetic 1995 filler titles: invented, multi-word, no token-subset
# collisions with each other or with the real list (checked by tests).
_FILLER_ADJECTIVES = (
    "Velvet", "Amber", "Crimson Static", "Paper", "Glass", "Hollow",
    "Winter", "Neon", "Quiet", "Broken", "Gilded", "Feral",
)
_FILLER_NOUNS = (
    "Horizon", "Parallax", "Cartographer", "Lantern", "Meridian",
    "Orchard", "Icarus", "Pendulum", "Mosaic", "Vertigo Line",
    "Palisade", "Ciphers",
)
_FILLER_GENRES = (
    ("Drama",), ("Comedy", "Drama"), ("Thriller",), ("Romance", "Drama"),
    ("Sci-Fi", "Thriller"), ("Mystery",),
)
_FILLER_PEOPLE = (
    "Harriet Stole", "Ivan Petrakis", "June Okafor", "Silas Marchetti",
    "Theodora Vance", "Ruben Castellanos", "Wilma Drees", "Anton Leverkuhn",
)


def _filler_records(count: int, *, seed: int = 1995) -> list[MovieRecord]:
    rng = random.Random(seed)
    records: list[MovieRecord] = []
    combos = [
        (adjective, noun)
        for adjective in _FILLER_ADJECTIVES
        for noun in _FILLER_NOUNS
    ]
    rng.shuffle(combos)
    for index in range(count):
        adjective, noun = combos[index]
        title = f"{adjective} {noun}"
        director = _FILLER_PEOPLE[index % len(_FILLER_PEOPLE)]
        actor = _FILLER_PEOPLE[(index + 3) % len(_FILLER_PEOPLE)]
        records.append(
            MovieRecord(
                title,
                1995,
                _FILLER_GENRES[index % len(_FILLER_GENRES)],
                (director,),
                (actor,),
                85 + (index * 7) % 60,
                "film",
                f"filler-{index}",
            )
        )
    return records


def typical_imdb_records(count: int = 60) -> list[MovieRecord]:
    """``count`` distinct 1995 movies for the typical-conditions IMDB side
    (real titles first, deterministic synthetic fillers after)."""
    real = [
        MovieRecord(title, 1995, genres, directors, cast, runtime, "film",
                    f"m1995-{title.lower().replace(' ', '-')}")
        for title, genres, directors, cast, runtime in _REAL_1995
    ]
    # Die Hard: With a Vengeance is a real 1995 movie — it is the paper's
    # kind of shared rwo between the franchise world and the 1995 catalog.
    records = [DIE_HARD_FILMS[2]] + real
    if count <= len(records):
        return records[:count]
    return records + _filler_records(count - len(records))


def typical_mpeg7_six() -> list[MovieRecord]:
    """The MPEG-7 side of the typical-conditions experiment: 6 movies
    produced in 1995, exactly two sharing their rwo with
    :func:`typical_imdb_records` (Die Hard: With a Vengeance and
    Braveheart); the other four are real 1995 films absent from the IMDB
    selection."""
    shared = [DIE_HARD_FILMS[2],
              MovieRecord("Braveheart", 1995, ("Action", "Drama"),
                          ("Mel Gibson",), ("Mel Gibson",), 178, "film",
                          "m1995-braveheart")]
    unique = [
        MovieRecord("Dead Man Walking", 1995, ("Crime", "Drama"),
                    ("Tim Robbins",), ("Susan Sarandon", "Sean Penn"), 122,
                    "film", "m1995-dead-man-walking"),
        MovieRecord("Leaving Las Vegas", 1995, ("Drama", "Romance"),
                    ("Mike Figgis",), ("Nicolas Cage", "Elisabeth Shue"), 111,
                    "film", "m1995-leaving-las-vegas"),
        MovieRecord("Sense and Sensibility", 1995, ("Drama", "Romance"),
                    ("Ang Lee",), ("Emma Thompson", "Kate Winslet"), 136,
                    "film", "m1995-sense-and-sensibility"),
        MovieRecord("The Bridges of Madison County", 1995, ("Drama", "Romance"),
                    ("Clint Eastwood",), ("Clint Eastwood", "Meryl Streep"), 135,
                    "film", "m1995-bridges-madison"),
    ]
    return shared + unique
