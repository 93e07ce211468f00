"""The benchmark's workloads and the inputs a seed generates for them.

Every workload is a sphere centred at the origin, so the Kirkwood series is
an exact oracle for it. Why each workload exists is in perfbench/README.md.

What the seed changes:

* ``born-hobi`` and ``salt-lobi-2w``: nothing the solver sees. The Born
  charge (+1 e at the centre) and the icosphere are fixed; the seed only
  picks the vector of the serial-versus-parallel matvec probe.
* ``protein-hobi-2w``: the thermal snapshot of one fixed molecule. A fixed
  layout of 2000 charges is jittered in position (Gaussian, sigma 0.1 A)
  and in magnitude (uniform factor 0.98..1.02), and the whole system,
  surface and charges together, gets a seeded rotation before the surface
  is written as MSMS text. The jitter is small so that the oracle errors
  and the GMRES iteration count stay steady from seed to seed; fully
  random charge sets move the energy error by 20x between seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pbbem.mesh import ChargeSystem, FlatMesh, icosahedral_sphere, write_msms

EPS2 = 80.0  # solvent dielectric of every workload

MOLECULE_CHARGES = 2000
MOLECULE_LAYOUT_SEED = 13015914  # fixes the molecule; the run seed perturbs it
MOLECULE_EXTENT = 0.6  # charges lie within this fraction of the radius
POSITION_JITTER = 0.1  # Angstrom
MAGNITUDE_JITTER = 0.02


@dataclass(frozen=True)
class Workload:
    """One problem shape: mesh, physics, scheme and worker count."""

    name: str
    scheme: str
    level: int  # icosphere refinement level
    radius: float  # Angstrom
    eps1: float
    kappa: float  # 1/Angstrom
    workers: int
    molecule: bool  # seeded charge cloud ingested through MSMS text
    oracle_bound: float  # largest accepted |E - E_kirkwood| / |E_kirkwood|


WORKLOADS = {
    w.name: w
    for w in (
        Workload("born-hobi", "hobi", 3, 2.0, 1.0, 0.0, 1, False, 1e-3),
        Workload("salt-lobi-2w", "lobi", 4, 2.0, 1.0, 0.125, 2, False, 2e-2),
        Workload("protein-hobi-2w", "hobi", 3, 12.0, 4.0, 0.125, 2, True, 1e-2),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything the pipeline is given; the same seed gives the same inputs."""

    charges: ChargeSystem
    msms: tuple[str, str] | None  # (.vert text, .face text) of a molecule
    probe_vector: np.ndarray  # seeds the serial-versus-parallel matvec check


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Inputs of one workload for one seed.

    Molecule workloads get their surface as the workload's icosphere,
    rotated and written as MSMS text; the others build the icosphere inside
    the timed pipeline. The probe vector has the length of the solver's
    unknown vector, twice the collocation count.
    """
    n_faces = 20 * 4**workload.level
    n_colloc = n_faces // 2 + 2 if workload.scheme == "hobi" else n_faces
    probe = np.random.default_rng([seed, 1]).standard_normal(2 * n_colloc)
    if not workload.molecule:
        born = ChargeSystem(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
        return Inputs(born, None, probe)

    rng = np.random.default_rng(seed)
    positions, charges = _molecule_charges(workload.radius, rng)
    rotation = _random_rotation(rng)
    sphere = icosahedral_sphere(workload.level, workload.radius)
    surface = FlatMesh(
        vertices=sphere.vertices @ rotation.T,
        normals=sphere.normals @ rotation.T,
        faces=sphere.faces,
    )
    charge_system = ChargeSystem(positions=positions @ rotation.T, charges=charges)
    return Inputs(charge_system, write_msms(surface), probe)


def _molecule_charges(radius: float, rng: np.random.Generator):
    layout = np.random.default_rng(MOLECULE_LAYOUT_SEED)
    n = MOLECULE_CHARGES
    extent = MOLECULE_EXTENT * radius
    dirs = layout.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    positions = dirs * (extent * layout.random(n) ** (1.0 / 3.0))[:, None]
    charges = layout.uniform(0.1, 0.8, n) * layout.choice([-1.0, 1.0], n)

    positions = positions + rng.normal(scale=POSITION_JITTER, size=positions.shape)
    rho = np.linalg.norm(positions, axis=1)
    outside = rho > extent
    positions[outside] *= (extent / rho[outside])[:, None]
    scale = rng.uniform(1.0 - MAGNITUDE_JITTER, 1.0 + MAGNITUDE_JITTER, n)
    charges = np.sign(charges) * np.clip(np.abs(charges) * scale, 0.1, 0.8)
    return positions, charges


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q
