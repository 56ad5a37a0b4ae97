"""Tests for the authorization layer: policy semantics, view
materialisation with cascade, and the no-leak search guarantee."""

from __future__ import annotations

import pytest

from repro.authz import (
    AccessPolicy,
    PolicySet,
    Principal,
    SecureBanks,
    authorized_view,
)
from repro.errors import AuthorizationError
from repro.relational import load_sql


@pytest.fixture
def hospital():
    """Doctors, patients (with a sensitive diagnosis), and visits."""
    return load_sql(
        """
        CREATE TABLE doctor (did TEXT PRIMARY KEY, name TEXT NOT NULL);
        CREATE TABLE patient (
            pid TEXT PRIMARY KEY,
            name TEXT NOT NULL,
            diagnosis TEXT,
            ward TEXT
        );
        CREATE TABLE visit (
            did TEXT NOT NULL REFERENCES doctor(did),
            pid TEXT NOT NULL REFERENCES patient(pid),
            note TEXT
        );
        INSERT INTO doctor VALUES ('d1', 'doctor house');
        INSERT INTO doctor VALUES ('d2', 'doctor grey');
        INSERT INTO patient VALUES ('p1', 'john smith', 'lupus', 'east');
        INSERT INTO patient VALUES ('p2', 'mary jones', 'flu', 'west');
        INSERT INTO visit VALUES ('d1', 'p1', 'followup scan');
        INSERT INTO visit VALUES ('d2', 'p2', 'routine check');
        """,
        "hospital",
    )


@pytest.fixture
def policies():
    policy_set = PolicySet()
    policy_set.grant("admin", AccessPolicy(default="allow"))
    policy_set.grant(
        "receptionist",
        AccessPolicy(default="allow").hide_columns("patient", "diagnosis"),
    )
    policy_set.grant(
        "east-nurse",
        AccessPolicy(default="allow").restrict_rows(
            "patient", lambda row: row["ward"] == "east"
        ),
    )
    policy_set.grant(
        "stats-only",
        AccessPolicy(default="deny").allow_table("doctor"),
    )
    return policy_set


class TestPolicySemantics:
    def test_default_allow(self):
        policy = AccessPolicy()
        assert policy.table_visible("anything")

    def test_default_deny(self):
        policy = AccessPolicy(default="deny")
        assert not policy.table_visible("anything")
        policy.allow_table("doctor")
        assert policy.table_visible("doctor")

    def test_deny_overrides_default_allow(self):
        policy = AccessPolicy().deny_table("patient")
        assert not policy.table_visible("patient")

    def test_invalid_default_rejected(self):
        with pytest.raises(AuthorizationError):
            AccessPolicy(default="maybe")

    def test_hide_columns_requires_columns(self):
        with pytest.raises(AuthorizationError):
            AccessPolicy().hide_columns("patient")

    def test_row_predicates_and_together(self, hospital):
        policy = (
            AccessPolicy()
            .restrict_rows("patient", lambda row: row["ward"] == "east")
            .restrict_rows("patient", lambda row: row["diagnosis"] == "flu")
        )
        rows = list(hospital.table("patient").scan())
        # p1 is east but lupus; p2 is flu but west: neither passes both.
        assert not any(policy.row_visible("patient", row) for row in rows)

    def test_duplicate_role_grant_rejected(self, policies):
        with pytest.raises(AuthorizationError):
            policies.grant("admin", AccessPolicy())

    def test_unknown_role_sees_nothing(self, policies, hospital):
        ghost = Principal.with_roles("ghost", "unknown-role")
        assert not policies.table_visible(ghost, "doctor")

    def test_permissive_union_of_roles(self, policies):
        both = Principal.with_roles("both", "stats-only", "east-nurse")
        # stats-only denies patient, east-nurse (default allow) sees it.
        assert policies.table_visible(both, "patient")

    def test_hidden_columns_intersect_across_roles(self, policies):
        clerk = Principal.with_roles("clerk", "receptionist")
        assert policies.hidden_columns(clerk, "patient") == {"diagnosis"}
        elevated = Principal.with_roles("elevated", "receptionist", "admin")
        # admin does not hide the column: the union of grants reveals it.
        assert policies.hidden_columns(elevated, "patient") == frozenset()


class TestAuthorizedView:
    def test_admin_sees_everything(self, hospital, policies):
        admin = Principal.with_roles("alice", "admin")
        view = authorized_view(hospital, policies, admin)
        assert view.total_rows() == hospital.total_rows()

    def test_denied_table_dropped(self, hospital, policies):
        stats = Principal.with_roles("bob", "stats-only")
        view = authorized_view(hospital, policies, stats)
        assert view.table_names == ["doctor"]

    def test_hidden_column_nulled(self, hospital, policies):
        clerk = Principal.with_roles("carol", "receptionist")
        view = authorized_view(hospital, policies, clerk)
        for row in view.table("patient").scan():
            assert row["diagnosis"] is None
        # Non-hidden columns intact.
        names = {row["name"] for row in view.table("patient").scan()}
        assert names == {"john smith", "mary jones"}

    def test_row_filter_applies(self, hospital, policies):
        nurse = Principal.with_roles("dan", "east-nurse")
        view = authorized_view(hospital, policies, nurse)
        patients = list(view.table("patient").scan())
        assert len(patients) == 1
        assert patients[0]["ward"] == "east"

    def test_cascade_removes_orphaned_references(self, hospital, policies):
        """Filtering out patient p2 must also remove d2's visit to p2."""
        nurse = Principal.with_roles("dan", "east-nurse")
        view = authorized_view(hospital, policies, nurse)
        visits = list(view.table("visit").scan())
        assert len(visits) == 1
        assert visits[0]["pid"] == "p1"

    def test_view_is_referentially_consistent(self, hospital, policies):
        nurse = Principal.with_roles("dan", "east-nurse")
        view = authorized_view(hospital, policies, nurse)
        view.check_integrity()  # must not raise

    def test_hiding_key_column_rejected(self, hospital):
        policies = PolicySet().grant(
            "bad", AccessPolicy().hide_columns("visit", "pid")
        )
        principal = Principal.with_roles("eve", "bad")
        with pytest.raises(AuthorizationError):
            authorized_view(hospital, policies, principal)

    def test_fk_into_invisible_table_dropped_from_schema(
        self, hospital, policies
    ):
        policies.grant(
            "no-patients", AccessPolicy().deny_table("patient")
        )
        principal = Principal.with_roles("frank", "no-patients")
        view = authorized_view(hospital, policies, principal)
        # visit survives but loses its FK to patient (and its rows keep
        # pid values as plain data).
        fks = view.schema.table("visit").foreign_keys
        assert all(fk.target_table != "patient" for fk in fks)

    def test_view_name_embeds_principal(self, hospital, policies):
        admin = Principal.with_roles("alice", "admin")
        view = authorized_view(hospital, policies, admin)
        assert "alice" in view.name


class TestSecureSearch:
    @pytest.fixture
    def secure(self, hospital, policies):
        return SecureBanks(hospital, policies)

    def test_admin_finds_diagnosis(self, secure):
        admin = Principal.with_roles("alice", "admin")
        answers = secure.search(admin, "lupus")
        assert answers

    def test_receptionist_cannot_find_diagnosis(self, secure):
        clerk = Principal.with_roles("carol", "receptionist")
        assert secure.search(clerk, "lupus") == []

    def test_nurse_cannot_reach_other_ward(self, secure):
        nurse = Principal.with_roles("dan", "east-nurse")
        assert secure.search(nurse, "mary") == []

    def test_no_leak_through_intermediate_nodes(self, secure):
        """A connection tree for the nurse must never pass through a
        filtered patient tuple, even as an intermediate node."""
        nurse = Principal.with_roles("dan", "east-nurse")
        view = secure.view_for(nurse)
        visible_names = {
            row["name"] for row in view.table("patient").scan()
        }
        for answer in secure.search(nurse, "doctor followup", max_results=10):
            for node in answer.tree.nodes:
                table_name, rid = node
                if table_name == "patient":
                    assert view.row(node)["name"] in visible_names

    def test_same_query_different_principals_differ(self, secure):
        admin = Principal.with_roles("alice", "admin")
        nurse = Principal.with_roles("dan", "east-nurse")
        admin_answers = secure.search(admin, "doctor")
        nurse_answers = secure.search(nurse, "doctor")
        assert len(admin_answers) >= len(nurse_answers)

    def test_engines_cached_per_principal(self, secure):
        admin = Principal.with_roles("alice", "admin")
        assert secure.engine_for(admin) is secure.engine_for(admin)

    def test_invalidate_rebuilds_view(self, secure, hospital):
        admin = Principal.with_roles("alice", "admin")
        assert secure.search(admin, "measles") == []
        hospital.insert("patient", ["p3", "new patient", "measles", "east"])
        # Stale snapshot until invalidated.
        assert secure.search(admin, "measles") == []
        secure.invalidate(admin)
        assert secure.search(admin, "measles")

    def test_audit_log_records_searches(self, secure):
        admin = Principal.with_roles("alice", "admin")
        nurse = Principal.with_roles("dan", "east-nurse")
        secure.search(admin, "lupus")
        secure.search(nurse, "mary")
        assert len(secure.audit) == 2
        assert [r.principal for r in secure.audit.records()] == [
            "alice",
            "dan",
        ]
        assert secure.audit.records("dan")[0].answer_count == 0
