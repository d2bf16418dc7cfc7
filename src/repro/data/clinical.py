"""Synthetic clinical-note corpus for the Enoxaparin QA use case (paper §2).

The paper motivates SPEAR with a pipeline that extracts and reasons over
Enoxaparin mentions in clinical notes (dosage, timing, indication), with
runtime refinement triggered by low confidence and missing context (e.g.
medication orders absent from the retrieved notes).  Real clinical data is
gated, so we generate a seeded synthetic corpus with exactly the structure
that pipeline exercises:

- per-patient notes of three kinds (discharge summary, radiology report,
  nursing note) — the view-dispatch example of §4.2;
- structured ground truth (dosage, timing, indication) per patient;
- optional medication orders and lab results, deliberately *missing* for a
  fraction of patients so the "Missing Order Retrieval" pattern of Table 1
  has something to retrieve;
- difficulty scores that scale the simulated model's error rate.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import cached_property

__all__ = [
    "ClinicalNote",
    "MedOrder",
    "LabResult",
    "Patient",
    "ClinicalCorpus",
    "make_clinical_corpus",
    "NOTE_KINDS",
]

NOTE_KINDS = ("discharge_summary", "radiology_report", "nursing_note")

_DOSAGES = ("30 mg", "40 mg", "60 mg", "80 mg", "1 mg/kg")
_TIMINGS = (
    "within the last 24 hours",
    "within the last 48 hours",
    "within the last 72 hours",
    "more than 72 hours ago",
)
_INDICATIONS = (
    "DVT prophylaxis",
    "PE treatment",
    "atrial fibrillation bridging",
    "post-operative anticoagulation",
)
_LABS = ("D-dimer", "anti-Xa level", "platelet count", "creatinine")


@dataclass(frozen=True)
class ClinicalNote:
    """One note in a patient chart."""

    note_id: str
    patient_id: str
    kind: str  # one of NOTE_KINDS
    text: str
    mentions_enoxaparin: bool


@dataclass(frozen=True)
class MedOrder:
    """A structured medication order."""

    order_id: str
    patient_id: str
    medication: str
    dosage: str
    frequency: str


@dataclass(frozen=True)
class LabResult:
    """A structured lab result."""

    lab_id: str
    patient_id: str
    test: str
    value: str


@dataclass(frozen=True)
class Patient:
    """A patient chart plus QA ground truth."""

    patient_id: str
    notes: tuple[ClinicalNote, ...]
    orders: tuple[MedOrder, ...]
    labs: tuple[LabResult, ...]
    #: ground truth for the QA task; None when the patient never received
    #: Enoxaparin (the pipeline should answer "not administered").
    dosage: str | None
    timing: str | None
    indication: str | None
    difficulty: float = 0.5

    @property
    def on_enoxaparin(self) -> bool:
        """Whether the chart records any Enoxaparin use."""
        return self.dosage is not None

    @property
    def has_orders(self) -> bool:
        """Whether structured orders were captured (missing-context knob)."""
        return bool(self.orders)


@dataclass
class ClinicalCorpus:
    """All patients, with lookup indexes."""

    patients: list[Patient] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.by_id = {patient.patient_id: patient for patient in self.patients}
        self._note_index = {
            note.note_id: note
            for patient in self.patients
            for note in patient.notes
        }

    @cached_property
    def content_digest(self) -> str:
        """Digest of every patient chart (see ``TweetCorpus.content_digest``)."""
        payload = "\n".join(map(repr, self.patients)).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]

    def __len__(self) -> int:
        return len(self.patients)

    def __iter__(self):
        return iter(self.patients)

    def note(self, note_id: str) -> ClinicalNote:
        """Look up a note by id."""
        return self._note_index[note_id]

    def all_notes(self) -> list[ClinicalNote]:
        """Every note in the corpus."""
        return list(self._note_index.values())

    def find_patient_in(self, text: str) -> Patient | None:
        """Ground a prompt against the corpus via the embedded patient id."""
        for patient_id, patient in self.by_id.items():
            if patient_id in text:
                return patient
        return None


def _note_text(
    rng: random.Random,
    kind: str,
    patient_id: str,
    dosage: str | None,
    timing: str | None,
    indication: str | None,
) -> tuple[str, bool]:
    """Compose note text; returns (text, mentions_enoxaparin)."""
    header = f"[{kind}] Patient {patient_id}."
    if dosage is None:
        fillers = {
            "discharge_summary": (
                "Hospital course uneventful. Discharged on home medications; "
                "no anticoagulants prescribed. Follow-up in two weeks."
            ),
            "radiology_report": (
                "CT chest without contrast: no acute findings. "
                "Impression: unremarkable study."
            ),
            "nursing_note": (
                "Patient resting comfortably. Vitals stable. "
                "No new medications administered this shift."
            ),
        }
        return f"{header} {fillers[kind]}", False

    mentions = True
    if kind == "discharge_summary":
        body = (
            f"Admitted for {indication}. Enoxaparin {dosage} subcutaneously "
            f"daily was started, last administered {timing}. "
            "Continue on discharge; follow-up with anticoagulation clinic."
        )
    elif kind == "radiology_report":
        body = (
            "CT angiography performed for suspected embolism. "
            f"Impression consistent with {indication}. "
            "Clinical team notified; anticoagulation initiated."
        )
        # Radiology reports rarely restate the drug name explicitly.
        mentions = rng.random() < 0.3
        if mentions:
            body += f" Patient receiving enoxaparin {dosage}."
    else:  # nursing_note
        body = (
            f"Administered enoxaparin {dosage} subcutaneously {timing}. "
            "Injection site without hematoma. Patient tolerated well."
        )
    return f"{header} {body}", mentions


def make_clinical_corpus(
    n_patients: int = 50,
    *,
    seed: int = 11,
    enoxaparin_fraction: float = 0.7,
    missing_orders_fraction: float = 0.3,
) -> ClinicalCorpus:
    """Generate a seeded corpus of ``n_patients`` charts."""
    if not 0.0 <= enoxaparin_fraction <= 1.0:
        raise ValueError(
            f"enoxaparin_fraction must be in [0, 1]: {enoxaparin_fraction}"
        )
    rng = random.Random(seed)
    patients: list[Patient] = []
    for index in range(n_patients):
        patient_id = f"p{index:04d}"
        on_drug = rng.random() < enoxaparin_fraction
        dosage = rng.choice(_DOSAGES) if on_drug else None
        timing = rng.choice(_TIMINGS) if on_drug else None
        indication = rng.choice(_INDICATIONS) if on_drug else None

        notes = []
        for note_number, kind in enumerate(NOTE_KINDS):
            text, mentions = _note_text(
                rng, kind, patient_id, dosage, timing, indication
            )
            notes.append(
                ClinicalNote(
                    note_id=f"{patient_id}-n{note_number}",
                    patient_id=patient_id,
                    kind=kind,
                    text=text,
                    mentions_enoxaparin=mentions,
                )
            )

        orders: list[MedOrder] = []
        if on_drug and rng.random() >= missing_orders_fraction:
            orders.append(
                MedOrder(
                    order_id=f"{patient_id}-o0",
                    patient_id=patient_id,
                    medication="enoxaparin",
                    dosage=dosage or "",
                    frequency="daily",
                )
            )

        labs = [
            LabResult(
                lab_id=f"{patient_id}-l{lab_number}",
                patient_id=patient_id,
                test=test,
                value=f"{rng.uniform(0.2, 4.0):.2f}",
            )
            for lab_number, test in enumerate(rng.sample(_LABS, k=2))
        ]

        patients.append(
            Patient(
                patient_id=patient_id,
                notes=tuple(notes),
                orders=tuple(orders),
                labs=tuple(labs),
                dosage=dosage,
                timing=timing,
                indication=indication,
                difficulty=round(rng.random(), 4),
            )
        )
    return ClinicalCorpus(patients)
