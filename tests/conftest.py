"""Shared fixtures and the acceptance-criteria summary table.

test_acceptance.py records one (number, status, detail) entry per criterion;
the terminal-summary hook below prints them as one line each at the end of
the run, so the PASS/FAIL/SKIP status of every criterion is visible even
when pytest captures test output.
"""

import os

import numpy as np
import pytest

ACCEPTANCE_RESULTS = []


def _childless() -> bool:
    """Whether this process has no child, running or unreaped (a zombie
    found here is reaped)."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Fail a test that leaves a child process of this one running or
    unreaped: the solver's forked workers must all be reaped by the call
    that started them, as a benchmark run that leaves a process running
    is refused."""
    yield
    if hasattr(os, "fork") and not _childless():
        pytest.fail("a child process outlived the test")


def record_criterion(number: int, passed: bool, detail: str,
                     skip_reason: str | None = None):
    """Record one criterion; a passed one with a ``skip_reason`` is a SKIP.

    SKIP marks a criterion whose measured part passed while another part
    could not be measured on this host; the reason leads its table line.
    """
    if not passed:
        status = "FAIL"
    elif skip_reason is not None:
        status, detail = "SKIP", f"{skip_reason}; {detail}"
    else:
        status = "PASS"
    ACCEPTANCE_RESULTS.append((number, status, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, status, detail in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {number:2d} {status}: {detail}")


def curved_nodes(mesh):
    """(N_f, 10, 3) node positions and normals of every face's curved element,
    vertices in `mesh.faces` order: rotation 0 of the fit discretize runs."""
    from pbbem.geometry import curved_nodes as fit

    return tuple(a[:, 0] for a in fit(mesh.vertices, mesh.normals, mesh.faces))


@pytest.fixture(scope="session")
def tetrahedron_mesh():
    """Regular tetrahedron with radial vertex normals, outward winding."""
    from pbbem.mesh import FlatMesh

    verts = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    ) / np.sqrt(3.0)
    faces = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    normals = verts / np.linalg.norm(verts, axis=1)[:, None]
    mesh = FlatMesh(vertices=verts, normals=normals, faces=faces)
    mesh.validate()
    return mesh


@pytest.fixture(scope="session")
def octahedron_arrays():
    """Octahedron vertex/face arrays with outward winding (no normals)."""
    verts = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ]
    )
    faces = np.array(
        [
            [0, 2, 4],
            [2, 1, 4],
            [1, 3, 4],
            [3, 0, 4],
            [2, 0, 5],
            [1, 2, 5],
            [3, 1, 5],
            [0, 3, 5],
        ]
    )
    return verts, faces
