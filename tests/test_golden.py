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


# The stats table at the default and at zero ratio places, and the indented
# stats and (0,0) report documents, pinned before their renderers were
# written from one field table each.
RENDER_PINS = {
    "10-burst": {
        "table": "746435f638684bca60ecd2bd53e854cff2f270d8b71b18e8657e9d7b3e96d729",
        "table-0": "d064f453c0de0710a878f4ac7a70b7539143878ae504efde53d919bafe6f610d",
        "stats-indent": "62e86450aad7508fc3d1a89bdc97e41373542c49a734d7d188e813f64040379c",
        "report-indent": "149122a00426a5a4fe608067d38d8badae0ccae271f6233190582eeef7e64aa9",
    },
    "33-default": {
        "table": "614d84c525f73d2551ba6b8ea7ce9277e461ddbdb16e4fc9bdb7c4934dddb7ca",
        "table-0": "b58bd57a5182e79c6497f3da9b0942e285fa4ee7b4b571771728c69d41bd549e",
        "stats-indent": "d28c1a8a93b72c51669f5b8072d946f4e130f1a1f05e765c48b3f3ab7f1f89ac",
        "report-indent": "86067ba20842d5f18d417a1428b6bcf4a9582ea9b28708cd955e671c4d23870c",
    },
    "33-exceed": {
        "table": "79e9397ad5a03d6664c07ba2b2a38fc09bf0bd99e3e20df19f448142701ade1e",
        "table-0": "353be879d9c99da79a691b23297980ed1afd5991e5a9adca21ec9536ed995d2a",
        "stats-indent": "563f7d5b7a88586513ee34811cfd64220e743c154f9cf5fdea4ba0f9d6890225",
        "report-indent": "33b01c16a6cd474ded3b6a4b65bc6376c9f19ab480392543e85934163d2eb902",
    },
    "33-inert": {
        "table": "0ae350c0cec923037360d18bac8c209c6de5ec58d4e0575a4efbc5d8691072c7",
        "table-0": "f135b02655de32f07dbeeb1f6da354a1fbd0da57819402f842f3dd377ce416fd",
        "stats-indent": "db2f56dace05197d15045c4dee1c226f30f52f034c99ea4caa99765ca982148f",
        "report-indent": "29f3a8b1e80a5138be4061c99ca5c8a83dbad791b43f27c218e2508530f1b2e1",
    },
    "33-scale-in": {
        "table": "fcdd7bb3c5cdebb7d5f6da4d5b8c0ce7c05299858c162ff72bf250619bbc49fb",
        "table-0": "a6fee927b16690a524eec28adf0885728d782242a892f31c40ecbb165856851d",
        "stats-indent": "a5d233d07aed85557922ccf4d80931b7139713e8906374b2730bbe0ff82a31c9",
        "report-indent": "9c4225a587a009f5e9c5e2d2c42e2530133bc306efa4b1709ebccf861dbf5393",
    },
    "fixture-0,1": {
        "table": "e64a75cb99c74e4ceacf4c19f61950281411f9d547d5a7c753a9ea0812ebe010",
        "table-0": "7e20e368f3413f665ad6b19d06f787d04510cf23521f3ef59b074ea15ac78b4c",
        "stats-indent": "12637e81e0f5322a32cbb7abb958da4ccc2cdfae2969066154276e667ae48117",
        "report-indent": "157dfe145e42ba29ecf377080879ac6de1741ead2a94c2e7fa513099e30caa24",
    },
    "fixture-0,2": {
        "table": "ca27aff3cca15f83ff047cfadb3bfc1f82ca06b32a4919ee8e3b49313c4266ee",
        "table-0": "aa5e17442e210a0463618c1979fed3027958e315d0603104383bc94c31ae7f43",
        "stats-indent": "01604900746b7d5c54e6077d75cd8c5be8d77930e7434ddff5ba45243614bad5",
        "report-indent": "7673be44404566a34d41a5c4c41462a6ac55052a84364a3e14bcfefaee4077a6",
    },
    "fixture-1,0": {
        "table": "559696099d0d9a0cf939353c4018c000eb067fab9f840aaf01b35aa395d1326d",
        "table-0": "d3160772fba4636f2fefb8d8e4424b3db69b93f7c787370fe86bdbf1e41b5a0b",
        "stats-indent": "a1beaa12bf2d42479cfc89b5cf63d954a98d7e8298d904ef9ea2556c30c261a7",
        "report-indent": "6352f11fd982a7227399242935406bba0895565c7114820c3ca7e15a6d490842",
    },
    "fixture-2,0": {
        "table": "c4d8249da397c4b1142a94b5c14f8108b06b4e8e8aaddb8b07784141745d4c2b",
        "table-0": "956a0da1e70ab92f23331e8d8a12b788bf7870b2d05a82297cb23ec6786d29fb",
        "stats-indent": "164d141eb08b1d1c0ce5df0d3d31d5242453be6595370f2ae8e663571981cd30",
        "report-indent": "d237d4ff4b6d7a023f288db52a61f243b46a2d654153fef39b281506c9883009",
    },
}


@pytest.mark.parametrize("name", sorted(REPORT_DOCUMENTS))
def test_renderings_are_byte_identical(name):
    trace = REPORT_DOCUMENTS[name]()
    got = {
        "table": _sha(stats(trace).render_table()),
        "table-0": _sha(stats(trace, ratio_places=0).render_table()),
        "stats-indent": _sha(dump_json(stats(trace).to_json_dict(), indent=2)),
        "report-indent": _sha(dump_json(validate(trace, declared=env_from_coords(0, 0)).to_json_dict(), indent=2)),
    }
    assert got == RENDER_PINS[name]
