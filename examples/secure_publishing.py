#!/usr/bin/env python
"""Selective data exposure with authorization (Sec. 7).

The paper plans "authorization mechanisms to selectively expose data to
different users".  This example publishes a hospital database to three
kinds of users and shows that keyword search respects each policy —
including the non-obvious guarantee that *connection trees never route
through tuples a user cannot see*.

Run:
    python examples/secure_publishing.py
"""

from __future__ import annotations

from repro.authz import AccessPolicy, PolicySet, Principal, SecureBanks
from repro.relational import Database, load_sql


def build_hospital() -> Database:
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
        INSERT INTO patient VALUES ('p2', 'mary jones', 'pneumonia', 'west');
        INSERT INTO patient VALUES ('p3', 'ravi patel', 'fracture', 'east');
        INSERT INTO visit VALUES ('d1', 'p1', 'followup scan ordered');
        INSERT INTO visit VALUES ('d2', 'p2', 'antibiotics prescribed');
        INSERT INTO visit VALUES ('d1', 'p3', 'cast removed');
        """,
        "hospital",
    )


def build_policies() -> PolicySet:
    policies = PolicySet()
    # Clinicians see everything.
    policies.grant("clinician", AccessPolicy(default="allow"))
    # The front desk sees people and visits but never diagnoses.
    policies.grant(
        "front-desk",
        AccessPolicy(default="allow").hide_columns("patient", "diagnosis"),
    )
    # Ward nurses see only their own ward's patients (and, through the
    # referential cascade, only the visits of those patients).
    policies.grant(
        "east-ward",
        AccessPolicy(default="allow").restrict_rows(
            "patient", lambda row: row["ward"] == "east"
        ),
    )
    return policies


def show(secure: SecureBanks, principal: Principal, query: str) -> None:
    answers = secure.search(principal, query, max_results=3)
    print(f"\n  {principal.name} ({', '.join(sorted(principal.roles))}) "
          f">>> {query!r}")
    if not answers:
        print("    (no answers — policy filtered everything)")
        return
    for answer in answers:
        print(f"    [{answer.relevance:.3f}]")
        for line in answer.render().splitlines():
            print(f"      {line}")


def main() -> None:
    database = build_hospital()
    secure = SecureBanks(database, build_policies())

    clinician = Principal.with_roles("dr-house", "clinician")
    front_desk = Principal.with_roles("sam", "front-desk")
    nurse = Principal.with_roles("nina", "east-ward")

    print("=== same queries, three principals ===")
    # The clinician finds the patient by diagnosis; the front desk
    # cannot — the diagnosis column is nulled in their view.
    show(secure, clinician, "lupus")
    show(secure, front_desk, "lupus")

    # The nurse sees east-ward patients only; Mary (west) is invisible,
    # even through her visit tuple.
    show(secure, clinician, "mary antibiotics")
    show(secure, nurse, "mary antibiotics")
    show(secure, nurse, "house followup")

    print("\n=== per-principal views ===")
    for principal in (clinician, front_desk, nurse):
        view = secure.view_for(principal)
        rows = {t.schema.name: len(t) for t in view.tables()}
        print(f"  {principal.name:<10} sees {rows}")

    print("\n=== audit trail ===")
    for record in secure.audit.records():
        print(
            f"  {record.principal:<10} {record.query!r:<24} "
            f"-> {record.answer_count} answer(s)"
        )


if __name__ == "__main__":
    main()
