"""Topology construction: parser, control centers, regions, cover, rings."""

from __future__ import annotations

import itertools
import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridmon.cli import main
from gridmon.topology import (
    CaseError,
    PowerCase,
    Role,
    Substation,
    border_substations,
    build_ring,
    build_topology,
    distance,
    load_power_case,
    parse_power_case,
    partition_regions,
    place_pmus,
    select_control_centers,
    substation_connectivity,
)


def make_case(buses, branches, substations):
    """Assemble a case file text from plain python structures."""
    lines = [f"bus {b}" for b in buses]
    lines += [f"branch {a} {b}" for a, b in branches]
    lines += [
        f"substation {sid} {x} {y} : " + " ".join(str(b) for b in members)
        for sid, (x, y), members in substations
    ]
    return parse_power_case("\n".join(lines))


# ===== parser =====


def test_parse_rejects_malformed_lines():
    for text, lineno in [
        ("bus x", 1),
        ("bus 1\nbus 1", 2),
        ("bus 1\nbranch 1", 2),
        ("bus 1\nbranch 1 1", 2),
        ("bus 1\nbranch 1 2", 2),
        ("bus 1\nsubstation 1 0 0 1", 2),
        ("bus 1\nsubstation 1 0 0 : 2", 2),
        ("bus 1\nsubstation 1 0 0 : 1\nsubstation 1 1 1 : 1", 3),
        ("bus 1\nwidget 5", 2),
    ]:
        with pytest.raises(CaseError, match=f":{lineno}:"):
            parse_power_case(text)


def test_parse_rejects_unassigned_bus():
    message = "grid: buses [2, 3] belong to no substation"
    with pytest.raises(CaseError) as parsed:
        parse_power_case("bus 1\nbus 2\nbus 3\nsubstation 1 0 0 : 1", name="grid")
    assert str(parsed.value) == message
    with pytest.raises(CaseError) as built:
        PowerCase("grid", [1, 2, 3], [(1, 2)], {1: Substation(1, (0.0, 0.0), (1,))})
    assert str(built.value) == message


def test_a_bus_in_two_substations_is_refused_with_both_named():
    message = "grid: bus 2 assigned to substations 4 and 7"
    with pytest.raises(CaseError) as parsed:
        parse_power_case("bus 1\nbus 2\nsubstation 4 0 0 : 1 2\nsubstation 7 1 1 : 2", name="grid")
    assert str(parsed.value) == message
    subs = {4: Substation(4, (0.0, 0.0), (1, 2)), 7: Substation(7, (1.0, 1.0), (2,))}
    with pytest.raises(CaseError) as built:
        PowerCase("grid", [1, 2], [], subs)
    assert str(built.value) == message


def test_a_branch_to_an_unknown_bus_is_refused_when_built_directly():
    with pytest.raises(CaseError, match=r"^grid: branch references unknown bus 2$"):
        PowerCase("grid", [1], [(1, 2)], {1: Substation(1, (0.0, 0.0), (1,))})


def test_a_case_file_that_is_not_utf8_is_a_case_error_naming_it(tmp_path):
    path = tmp_path / "latin1.case"
    path.write_bytes(b"bus 1\n# caf\xe9\nsubstation 1 0 0 : 1\n")
    with pytest.raises(CaseError, match=rf"^cannot read case file {re.escape(str(path))}: not UTF-8"):
        load_power_case(str(path))


def test_a_case_file_that_cannot_be_read_is_a_case_error_naming_it(tmp_path, capsys):
    for path, reason in [(tmp_path / "absent.case", "No such file"), (tmp_path, "Is a directory")]:
        with pytest.raises(CaseError, match=rf"^cannot read case file {re.escape(str(path))}: {reason}"):
            load_power_case(str(path))
    scenario = tmp_path / "absent.ini"
    scenario.write_text("[case]\npath = absent.case\n")
    assert main(["run", "--scenario", str(scenario)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot read case file {tmp_path / 'absent.case'}: No such file" in err


def test_parse_accepts_comments_and_blanks():
    case = make_case([1, 2], [(1, 2)], [(1, (0, 0), [1]), (2, (3, 4), [2])])
    assert sorted(case.buses) == [1, 2]
    assert case.substation_of(2) == 2
    assert distance(case.substations[1].position, case.substations[2].position) == 5.0


# ===== control-center selection =====


def test_control_centers_by_distinct_substation_connectivity():
    # S1 touches S2, S3, S4; S2 touches S1, S3; ties break on lower id.
    case = make_case(
        [1, 2, 3, 4],
        [(1, 2), (1, 3), (1, 4), (2, 3)],
        [(1, (0, 0), [1]), (2, (1, 0), [2]), (3, (0, 1), [3]), (4, (1, 1), [4])],
    )
    assert substation_connectivity(case, 1) == 3
    assert substation_connectivity(case, 2) == 2
    assert select_control_centers(case) == (1, 2)


def scanned_ties(case, substation_id):
    """The substations a branch ties to ``substation_id``, by a scan over every branch."""
    tied = set()
    for a, b in case.branches:
        sa, sb = case.substation_of(a), case.substation_of(b)
        if sa == substation_id and sb != substation_id:
            tied.add(sb)
        elif sb == substation_id and sa != substation_id:
            tied.add(sa)
    return tied


@pytest.mark.parametrize("name", ["ieee14.case", "ieee118.case"])
def test_connectivity_matches_a_scan_of_every_branch(cases_dir, name):
    case = load_power_case(str(cases_dir / name))
    for sid in case.substations:
        assert case.ties[sid] == scanned_ties(case, sid)
        assert substation_connectivity(case, sid) == len(scanned_ties(case, sid))
    with pytest.raises(CaseError, match=r"^unknown substation 0$"):
        substation_connectivity(case, 0)


@given(st.data())
def test_connectivity_matches_a_scan_on_small_cases(data):
    n = data.draw(st.integers(1, 8))
    buses = list(range(1, n + 1))
    owner = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    possible = list(itertools.combinations(buses, 2))
    branches = data.draw(st.lists(st.sampled_from(possible), max_size=12)) if possible else []
    subs = [
        (sid, (float(sid), 0.0), [b for b, o in zip(buses, owner) if o == sid])
        for sid in sorted(set(owner))
    ]
    case = make_case(buses, branches, subs)
    for sid in case.substations:
        assert substation_connectivity(case, sid) == len(scanned_ties(case, sid))


def test_control_centers_need_two_substations():
    case = make_case([1], [], [(1, (0, 0), [1])])
    with pytest.raises(CaseError):
        select_control_centers(case)


def test_intra_substation_branches_do_not_count():
    case = make_case(
        [1, 2, 3],
        [(1, 2), (2, 3)],
        [(1, (0, 0), [1, 2]), (2, (5, 0), [3])],
    )
    # Branch 1-2 is internal to S1; only 2-3 crosses substations.
    assert substation_connectivity(case, 1) == 1
    assert substation_connectivity(case, 2) == 1


# ===== PMU placement against a brute-force cover oracle =====


def brute_force_min_cover(case):
    buses = sorted(case.buses)
    neighbors = {b: {b} for b in buses}
    for a, b in case.branches:
        neighbors[a].add(b)
        neighbors[b].add(a)
    for size in range(1, len(buses) + 1):
        for combo in itertools.combinations(buses, size):
            covered = set()
            for b in combo:
                covered |= neighbors[b]
            if covered == set(buses):
                return size
    return len(buses)


# What place_pmus returns for the shipped 118-bus case, in placement order.
IEEE118_PMUS = [
    49, 100, 12, 37, 17, 59, 77, 85, 23, 68, 5, 71, 110, 20, 27, 80, 92, 105,
    9, 34, 45, 51, 61, 75, 1, 11, 25, 28, 32, 40, 50, 52, 86, 89, 94,
]


def test_pmu_placement_on_ieee118_is_pinned_and_leaves_the_case_graph_alone(cases_dir):
    case = load_power_case(str(cases_dir / "ieee118.case"))
    scanned = {b: {b} for b in case.buses}
    for a, b in case.branches:
        scanned[a].add(b)
        scanned[b].add(a)
    assert case.neighborhood == scanned
    assert place_pmus(case) == IEEE118_PMUS
    assert case.neighborhood == scanned
    assert place_pmus(case) == IEEE118_PMUS


def test_pmu_cover_path_of_three():
    case = make_case([1, 2, 3], [(1, 2), (2, 3)], [(1, (0, 0), [1, 2, 3])])
    assert place_pmus(case) == [2]
    assert brute_force_min_cover(case) == 1


def test_pmu_cover_complete_graph():
    case = make_case(
        [1, 2, 3, 4],
        list(itertools.combinations([1, 2, 3, 4], 2)),
        [(1, (0, 0), [1, 2, 3, 4])],
    )
    assert place_pmus(case) == [1]  # any bus covers K4; tie falls to lowest id
    assert brute_force_min_cover(case) == 1


@given(st.data())
def test_pmu_cover_is_always_complete(data):
    n = data.draw(st.integers(2, 9))
    buses = list(range(1, n + 1))
    possible = list(itertools.combinations(buses, 2))
    branches = data.draw(st.lists(st.sampled_from(possible), max_size=len(possible)))
    case = make_case(buses, branches, [(1, (0, 0), buses)])
    placed = place_pmus(case)
    assert len(placed) == len(set(placed))
    adjacency = {b: {b} for b in buses}
    for a, b in case.branches:
        adjacency[a].add(b)
        adjacency[b].add(a)
    covered = set()
    for b in placed:
        covered |= adjacency[b]
    assert covered == set(buses)


def test_pmu_greedy_matches_optimum_on_small_cases():
    rng = random.Random(3)
    for _ in range(12):
        n = rng.randint(3, 7)
        buses = list(range(1, n + 1))
        branches = [p for p in itertools.combinations(buses, 2) if rng.random() < 0.45]
        case = make_case(buses, branches, [(1, (0, 0), buses)])
        greedy = len(place_pmus(case))
        # Greedy cover is within the classic ln(n)+1 factor of optimal.
        assert greedy <= brute_force_min_cover(case) * 3


# ===== region partition =====


def test_partition_regions_covers_all_substations():
    case = make_case(
        [1, 2, 3, 4],
        [(1, 2), (2, 3), (3, 4)],
        [(1, (0, 0), [1]), (2, (10, 0), [2]), (3, (20, 0), [3]), (4, (30, 0), [4])],
    )
    regions = partition_regions(case, d_km=12.0)
    members = sorted(m for r in regions for m in r.members)
    assert members == [1, 2, 3, 4]
    for region in regions:
        anchor_pos = case.substations[region.anchor].position
        assert region.anchor in region.members
        for sid in region.members:
            assert distance(case.substations[sid].position, anchor_pos) <= 12.0



@pytest.mark.parametrize("d_km", [0.0, -1.0, math.nan])
def test_partition_regions_refuses_a_radius_that_is_not_positive(d_km):
    # NaN compares false with every distance, so no region would ever grow.
    case = make_case([1, 2], [(1, 2)], [(1, (0, 0), [1]), (2, (10, 0), [2])])
    with pytest.raises(CaseError, match="region distance must be positive"):
        partition_regions(case, d_km)


@given(st.data())
def test_partition_regions_properties(data):
    n = data.draw(st.integers(2, 10))
    coords = data.draw(
        st.lists(
            st.tuples(st.integers(0, 60), st.integers(0, 60)),
            min_size=n, max_size=n, unique=True,
        )
    )
    d_km = data.draw(st.integers(5, 80))
    subs = [(i + 1, pos, [i + 1]) for i, pos in enumerate(coords)]
    case = make_case(list(range(1, n + 1)), [], subs)
    regions = partition_regions(case, float(d_km))
    seen: list[int] = []
    for region in regions:
        seen.extend(region.members)
        for sid in region.members:
            assert distance(case.substations[sid].position,
                            case.substations[region.anchor].position) <= d_km
    assert sorted(seen) == list(range(1, n + 1))  # disjoint, complete
    assert [r.id for r in regions] == list(range(1, len(regions) + 1))


def test_border_substations_are_hull_corners():
    case = make_case(
        [1, 2, 3, 4, 5],
        [],
        [
            (1, (0, 0), [1]), (2, (10, 0), [2]), (3, (10, 10), [3]),
            (4, (0, 10), [4]), (5, (5, 5), [5]),  # interior point
        ],
    )
    assert set(border_substations(case)) == {1, 2, 3, 4}


# ===== ring construction =====


def ring_node(nid, pos):
    from gridmon.topology import DeployedNode

    return DeployedNode(id=nid, role=Role.RS, position=pos)


def test_build_ring_nearest_neighbor_order():
    start = ring_node(100, (0.0, 0.0))
    end = ring_node(200, (30.0, 0.0))
    sinks = [ring_node(1, (20.0, 0.0)), ring_node(2, (5.0, 0.0)), ring_node(3, (12.0, 0.0))]
    assert build_ring(start, end, sinks) == [100, 2, 3, 1, 200]


def test_build_ring_tie_breaks_on_lower_id():
    start = ring_node(100, (0.0, 0.0))
    end = ring_node(200, (9.0, 0.0))
    sinks = [ring_node(7, (3.0, 4.0)), ring_node(4, (3.0, -4.0)), ring_node(9, (6.0, 0.0))]
    # 7 and 4 are both exactly 5 km out; the lower id goes first,
    # and from (3,-4) node 9 is closer than node 7
    assert build_ring(start, end, sinks) == [100, 4, 9, 7, 200]


def test_build_ring_rejects_empty_sinks():
    with pytest.raises(CaseError):
        build_ring(ring_node(1, (0.0, 0.0)), ring_node(2, (1.0, 0.0)), [])


def test_build_ring_visits_each_sink_once():
    rng = random.Random(11)
    sinks = [ring_node(i, (rng.uniform(0, 50), rng.uniform(0, 50))) for i in range(1, 9)]
    ring = build_ring(ring_node(90, (0.0, 0.0)), ring_node(91, (50.0, 50.0)), sinks)
    assert ring[0] == 90 and ring[-1] == 91
    assert sorted(ring[1:-1]) == list(range(1, 9))
    # nearest-neighbor invariant, re-derived step by step
    here, left = (0.0, 0.0), {n.id: n.position for n in sinks}
    for nid in ring[1:-1]:
        best = min(left, key=lambda i: (distance(here, left[i]), i))
        assert nid == best
        here = left.pop(nid)


# ===== full builds on the shipped fixtures =====


def test_ieee14_structural_facts(cases_dir):
    case = load_power_case(str(cases_dir / "ieee14.case"))
    assert len(case.substations) == 11
    assert len(case.buses) == 14
    assert select_control_centers(case) == (1, 2)
    assert set(border_substations(case)) == {3, 4, 5, 10}
    regions = partition_regions(case, 35.0)
    assert [sorted(r.members) for r in regions] == [[2, 3, 4, 9], [1, 6, 11], [5, 7, 8, 10]]
    assert [r.anchor for r in regions] == [4, 11, 8]
    assert place_pmus(case) == [4, 6, 9, 1, 7]


def test_ieee118_structural_facts(cases_dir):
    case = load_power_case(str(cases_dir / "ieee118.case"))
    assert len(case.substations) == 107
    assert len(case.buses) == 118
    main, backup = select_control_centers(case)
    assert (main, backup) == (61, 16)
    assert set(case.substations[61].buses) == {68, 69, 116}
    assert set(case.substations[16].buses) == {17, 30}
    regions = partition_regions(case, 45.0)
    assert len(regions) == 8
    placed = place_pmus(case)
    adjacency = {b: {b} for b in case.buses}
    for a, b in case.branches:
        adjacency[a].add(b)
        adjacency[b].add(a)
    covered = set()
    for b in placed:
        covered |= adjacency[b]
    assert covered == set(case.buses)


def test_build_topology_node_inventory(cases_dir):
    case = load_power_case(str(cases_dir / "ieee14.case"))
    topo = build_topology(case, 35.0, relay_count=20, ehrn_count=10,
                          rng=random.Random("t"))
    roles = {}
    for node in topo.nodes:
        roles[node.role] = roles.get(node.role, 0) + 1
    assert roles[Role.GATEWAY] == 11
    assert roles[Role.RS] == 3 and roles[Role.PDC] == 3
    assert roles[Role.CC_GATEWAY] == 2 and roles[Role.CC_SERVER] == 2
    assert roles[Role.RELAY] == 20 and roles[Role.EHRN] == 10
    assert len({n.id for n in topo.nodes}) == len(topo.nodes)
    # rings: start at the main CC gateway, end at the backup
    main_gw, backup_gw = topo.cc_gateways
    assert topo.rs_ring[0] == main_gw and topo.rs_ring[-1] == backup_gw
    assert topo.pdc_ring[0] == main_gw and topo.pdc_ring[-1] == backup_gw
    assert sorted(topo.rs_ring[1:-1]) == sorted(topo.rs_of_region.values())


def test_deploy_is_deterministic_per_seed(cases_dir):
    case = load_power_case(str(cases_dir / "ieee14.case"))
    t1 = build_topology(case, 35.0, 25, 10, random.Random("s1"))
    t2 = build_topology(case, 35.0, 25, 10, random.Random("s1"))
    t3 = build_topology(case, 35.0, 25, 10, random.Random("s2"))
    assert t1.nodes == t2.nodes
    assert t1.nodes != t3.nodes
    # infrastructure placement does not depend on the rng
    fixed = [n for n in t1.nodes if n.role not in (Role.RELAY, Role.EHRN)]
    moved = [n for n in t3.nodes if n.role not in (Role.RELAY, Role.EHRN)]
    assert fixed == moved


def test_export_topology_format(cases_dir, tmp_path):
    case = load_power_case(str(cases_dir / "ieee14.case"))
    topo = build_topology(case, 35.0, 5, 5, random.Random("e"))
    out = tmp_path / "topo.txt"
    from gridmon.topology import export_topology

    export_topology(topo, str(out))
    lines = out.read_text().splitlines()
    node_lines = [l for l in lines if l.startswith("node ")]
    edge_lines = [l for l in lines if l.startswith("edge ")]
    assert len(node_lines) == len(topo.nodes)
    ids = {int(l.split()[1]) for l in node_lines}
    for line in edge_lines:
        _, a, b, kind = line.split()
        assert int(a) in ids and int(b) in ids
        assert kind in ("optical", "wired", "dedicated", "serves")
