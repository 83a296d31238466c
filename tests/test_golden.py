"""Golden corpus: the byte-identity gate for generated documents and reports.

Every generated document, validation report, stats document and CSV export
below is pinned by sha256. A change to the generator, the writers or the
analyses that alters any of those bytes fails here; such a change is allowed
only to fix a listed defect, and the pins then move with it.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from vmptrace.analysis import MODE_PAPER, MODE_STRICT, stats, validate
from vmptrace.environments import enumerate_environments, env_from_coords
from vmptrace.errors import ConfigError
from vmptrace.fixtures import FixtureId, fixture_trace
from vmptrace.generator import ArrivalModel, GeneratorConfig, ServiceShape, UtilizationPolicy, generate
from vmptrace.traceio import dump_json, trace_to_bytes, trace_to_csv_text

SEEDS = (0, 1, 2, 3)
HORIZONS = (1, 2, 12)


def _inert(config: GeneratorConfig) -> GeneratorConfig:
    """Disable every stochastic dynamic so only guaranteed injections remain."""
    return dataclasses.replace(
        config,
        vertical_policy=dataclasses.replace(config.vertical_policy, p_step=0.0),
        horizontal_policy=dataclasses.replace(config.horizontal_policy, p_scale=0.0),
        utilization_policy=dataclasses.replace(
            config.utilization_policy, cpu_step=(0, 0), ram_step=(0, 0), net_step=(0, 0)
        ),
    )


def _corpus():
    for env in enumerate_environments():
        for seed in SEEDS:
            for guarantee in (False, True):
                for horizon in HORIZONS:
                    base = GeneratorConfig(env, horizon=horizon, seed=seed, guarantee_dynamics=guarantee)
                    yield base
                    yield _inert(base)


def test_corpus_documents_are_byte_identical():
    digest = hashlib.sha256()
    configs = errors = 0
    for config in _corpus():
        configs += 1
        try:
            entry = hashlib.sha256(trace_to_bytes(generate(config))).hexdigest()
        except ConfigError as exc:
            errors += 1
            entry = f"ConfigError: {exc}"
        digest.update(entry.encode("utf-8") + b"\n")
    assert (configs, errors) == (768, 96)
    assert digest.hexdigest() == "658c7a1c5d6eab0c061d819ac067f37add5c406b4e3270c694843f3bda234828"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Documents whose reports are pinned: stochastic dynamics in the richest
# environment, injected dynamics only, walks allowed past the request (the
# strict bound rule fires), burst churn, an injected scale-in (every
# datacenter starts at max_vms), and the four bundled examples.
REPORT_DOCUMENTS = {
    "33-default": lambda: generate(GeneratorConfig(env_from_coords(3, 3), horizon=12, seed=1, guarantee_dynamics=True)),
    "33-inert": lambda: generate(_inert(GeneratorConfig(env_from_coords(3, 3), horizon=12, seed=2, guarantee_dynamics=True))),
    "33-exceed": lambda: generate(
        GeneratorConfig(
            env_from_coords(3, 3),
            horizon=12,
            seed=3,
            utilization_policy=UtilizationPolicy(allow_exceed_request=True),
        )
    ),
    "10-burst": lambda: generate(
        GeneratorConfig(
            env_from_coords(1, 0),
            horizon=12,
            seed=0,
            arrival=ArrivalModel(rate=3, burst=True),
        )
    ),
    "33-scale-in": lambda: generate(
        _inert(
            GeneratorConfig(
                env_from_coords(3, 3),
                horizon=12,
                seed=1,
                service_shape=ServiceShape(vms_per_dc=(4, 4)),
                guarantee_dynamics=True,
            )
        )
    ),
    **{f"fixture-{f.value}": (lambda f=f: fixture_trace(f)) for f in FixtureId},
}

REPORT_PINS = {
    "10-burst": {
        "document": "3fbc5e62a3a9bd480e53c004f8dfc9af7835434e5922aa59cdf06af5db0329e5",
        "reports": "087472537f760fcefb18aaf609b032353aa22f11c2601083775e1fd0a50144fe",
        "stats": "551dc72fd7a6a364659e7de17fa97a5814293184b16c903cdf06de446fdcf378",
        "csv": "0a394c1a7ad4394280cfb6f77d3d2ac11945f6e9e2de341194591afe19c41bc9",
    },
    "33-default": {
        "document": "6693fa39f70e21c6774b48e84d5259cb4ea9e390c28346bfbda56ed670174d76",
        "reports": "e36c19e2299a04a838047b11ed5f01737de4fb7c4b119ac080a4d3083e56eefe",
        "stats": "ecb5e8628921906372456a12f0e70858ad8559dc8b3e849f9b01ab1784214a7d",
        "csv": "5888871398725bc9e58d79985db11a40395345debdc86b019528342e7e2677a1",
    },
    "33-exceed": {
        "document": "cb68fe2e021e743017838efa3439f1af4ff247bb9c0fa1a3c795b1a0fe2a5969",
        "reports": "6c09469dc8768a2f28dfb291a6014a2b65bd308536e11595e748fe518a1f6174",
        "stats": "31a9798e86b58a2a937a1c271790058563753aa6d06556ac326d55d0d635c2de",
        "csv": "65abc0562d52e4ff51739267945246d606783e90267eb81fd4900f10a224ac93",
    },
    "33-inert": {
        "document": "002d1187b2fb347ab5bd944cb308638f31e0272afdeb71bb43193d6745384567",
        "reports": "c44146a84ae9a619f45f8f828ae9170fab4aa1bd93abfa194070bf95a13ba069",
        "stats": "7158e351a10d4922f82371fd009577315ec96d72d348c800c8801c66b0476d4e",
        "csv": "20827efa28e2afbdb5ec98c9d01ed485a57a9621897d5d36d4b5d956284e226e",
    },
    "33-scale-in": {
        "document": "98418e856031e7463d12bb21c115329549ecc28fd915ed40a57a3add2042188f",
        "reports": "b9479e29c80ac84ab31bfac032e95b596ee8528641c026efd561450763ceddde",
        "stats": "b18e7596c135137ee47946beaddb62388e90d6a39f83507e6bc47c89452206f8",
        "csv": "3e4a6c3d6e17a8b73d8f7b37b5883718cc170426e37def10086a3c03f07854d6",
    },
    "fixture-0,1": {
        "document": "f36d61ed682c52cbaa87d28a386627775ec751b38387830ec71339eb708507e9",
        "reports": "0c1fcfcc3b21db601c9a1094744177971a318e10bafe37aca5b38b89d90bb90a",
        "stats": "686496d1961a9dd0d05c13e33478654035729d72ca28d600fd344c727f7bbdb3",
        "csv": "7cbd7c758336108f868e875d50462c3c8eaf1590045171432f9891af4bb05c87",
    },
    "fixture-0,2": {
        "document": "a53c41af9b9023eac03d73d0846214d5b708798e0e1ff2aeeb2005291b735d93",
        "reports": "575c2175ff4faa83518f9dc6c387d1fe5d9affde3bee7844806d63a42cb897c9",
        "stats": "a854ec356a1913f7656a11feddc9643faec60b80d31a649e332b2a3cc850a666",
        "csv": "aa764a009c8c818c417781895ca041b0ad308391e2910085431cca6e2b5ef9a9",
    },
    "fixture-1,0": {
        "document": "83dcffbd914d593799e5f809c2c31c551e15a563bac7fb1b6da512fc30f73d72",
        "reports": "6088427aabf5f273bba30089b2bb2da97b06da5ab3061841eb63362ec71ba27a",
        "stats": "26fcd1f07d0b6081a16e32f2f3f86c5b1b62174e762250980afb8c9ba69198ce",
        "csv": "fe0e9caf65c598af60793c6aea8b6b4f47d89185a7510abaf210e420f51b57d3",
    },
    "fixture-2,0": {
        "document": "879830fe25cf53a424a34b5216cd545c32f855e08a2a22555135187568c4f4cd",
        "reports": "4af59bfe0bb100f7378f97c9dddffffb8b1e567304b125d52048b953545bde08",
        "stats": "83a39c9186c09289927df0dd4185f769283cf34355a1ba2523af4b7be9353728",
        "csv": "d1349e4236f47d049239cbd66943a85cdbf9cf7ae608836b3f44143af004f7d0",
    },
}


@pytest.mark.parametrize("name", sorted(REPORT_DOCUMENTS))
def test_reports_are_byte_identical(name):
    trace = REPORT_DOCUMENTS[name]()
    reports = "".join(
        validate(trace, mode, declared=declared).render_text()
        for mode in (MODE_STRICT, MODE_PAPER)
        for declared in enumerate_environments()
    )
    got = {
        "document": hashlib.sha256(trace_to_bytes(trace)).hexdigest(),
        "reports": _sha(reports),
        "stats": _sha(dump_json(stats(trace).to_json_dict())),
        "csv": _sha(trace_to_csv_text(trace)),
    }
    assert got == REPORT_PINS[name]
