"""Named corpora: the instances ``repro serve`` can host.

A corpus *spec* is a name with optional ``key=value`` parameters —
``figure1``, ``bookstore:orders=40,users=12``, ``triangle:n=8`` — and
resolves to a freshly built
:class:`~repro.core.multimodel.MultiModelQuery`. A bare integer after
the colon is the corpus's natural size knob — ``dblp:5000`` (records),
``xmark-stream:4`` (scale factor) — sugar for the streamed-generator
corpora. Every resolution builds new objects (fresh relations, fresh
documents), so two services — or a service and its test oracle —
hosting the same spec start from byte-identical but fully independent
state.
"""

from __future__ import annotations

from repro.core.multimodel import MultiModelQuery
from repro.data.scenarios import bookstore_instance, figure1_query
from repro.data.synthetic import agm_tight_triangle, skewed_triangle
from repro.errors import ServiceError


def _parse_spec(spec: str) -> tuple[str, dict[str, int]]:
    """Split ``name:key=value,...`` into a name and int parameters."""
    name, _, tail = spec.partition(":")
    parameters: dict[str, int] = {}
    if tail:
        for part in tail.split(","):
            key, separator, value = part.partition("=")
            if not separator or not key:
                try:
                    # Bare positional int: the corpus's size knob
                    # (``dblp:5000``, ``xmark-stream:4``).
                    parameters["_"] = int(part)
                    continue
                except ValueError:
                    pass
                raise ServiceError(
                    "bad_request",
                    f"malformed corpus parameter {part!r} in {spec!r} "
                    f"(expected key=value)")
            try:
                parameters[key.strip()] = int(value)
            except ValueError:
                raise ServiceError(
                    "bad_request",
                    f"corpus parameter {key!r} in {spec!r} must be an "
                    f"integer, got {value!r}") from None
    return name.strip(), parameters


def _take(parameters: dict[str, int], key: str, default: int) -> int:
    return parameters.pop(key, default)


def corpus_query(spec: str) -> MultiModelQuery:
    """Build the multi-model query instance named by *spec*.

    Supported specs (all parameters optional):

    * ``figure1`` — the paper's Figure 1 micro-instance.
    * ``bookstore[:orders=N,users=M,seed=S]`` — the scaled bookstore
      scenario (defaults ``orders=40``, ``users=12``, ``seed=0``).
    * ``triangle[:n=N]`` — the AGM-tight relational triangle
      (default ``n=8``; no documents, relational updates only).
    * ``skewed[:n=N,b=D,c=M]`` — the skewed triangle whose static
      stats pick a provably bad expansion order (default ``n=512``;
      ``b``/``c`` override the hub-domain sizes) — the adaptive
      planner's showcase and the ``repro explain`` default.
    * ``dblp[:N | :n=N,seed=S]`` — N DBLP-style publication records
      (:mod:`repro.data.dblp`; default ``n=2000``) with the
      article/era multi-model join.
    * ``xmark-stream[:F | :factor=F,seed=S,fanout=K]`` — the XMark
      shape at scale factor F built from the streaming text generator
      (:func:`repro.xml.xmark.xmark_stream_chunks`; default
      ``factor=2``), person interests joined to a fan-out table.
    """
    name, parameters = _parse_spec(spec)
    if name == "figure1":
        query = figure1_query()
    elif name == "bookstore":
        orders = _take(parameters, "orders", 40)
        users = _take(parameters, "users", 12)
        seed = _take(parameters, "seed", 0)
        query = bookstore_instance(orders, users, seed=seed)
    elif name == "triangle":
        n = _take(parameters, "n", 8)
        query = MultiModelQuery(agm_tight_triangle(n), [], name="triangle")
    elif name == "skewed":
        n = _take(parameters, "n", 512)
        b = _take(parameters, "b", 0)
        c = _take(parameters, "c", 0)
        query = MultiModelQuery(
            skewed_triangle(n, b_domain=b or None, c_domain=c or None),
            [], name="skewed")
    elif name == "dblp":
        from repro.data.dblp import dblp_document, dblp_query

        n = _take(parameters, "n", _take(parameters, "_", 2000))
        seed = _take(parameters, "seed", 0)
        query = dblp_query(dblp_document(n, seed=seed))
    elif name == "xmark-stream":
        from repro.core.multimodel import TwigBinding
        from repro.relational.relation import Relation
        from repro.xml.parser import parse_document
        from repro.xml.twig_parser import parse_twig
        from repro.xml.xmark import xmark_stream_chunks

        factor = _take(parameters, "factor", _take(parameters, "_", 2))
        seed = _take(parameters, "seed", 0)
        fanout = _take(parameters, "fanout", 8)
        # A write over a pinned version clones the tree, so the stream
        # parses into memory here; the streamed-arena build path serves
        # the same chunks through ``repro.xml.streaming`` instead.
        document = parse_document(
            "".join(xmark_stream_chunks(factor, seed=seed)))
        twig = parse_twig("p=person(/nm=name, //i=interest)")
        categories = sorted({node.value
                             for node in document.nodes("interest")})
        relation = Relation("R", ("x", "i"),
                            [(x, category) for x in range(fanout)
                             for category in categories])
        query = MultiModelQuery([relation],
                                [TwigBinding(twig, document)],
                                name="xmark-stream")
    else:
        raise ServiceError(
            "bad_request",
            f"unknown corpus {name!r}; choose from {available_corpora()!r}")
    if parameters:
        raise ServiceError(
            "bad_request",
            f"unknown corpus parameter(s) {sorted(parameters)!r} "
            f"for corpus {name!r}")
    return query


def available_corpora() -> list[str]:
    """The corpus names :func:`corpus_query` accepts."""
    return ["bookstore", "dblp", "figure1", "skewed", "triangle",
            "xmark-stream"]
