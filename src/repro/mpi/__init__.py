"""Simulated MPI layer (substrate).

Provides the communication patterns the paper's C+MPI implementation
uses, with wire timing from the simulated interconnect and the paper's
"communication is processor time" accounting (Section 4.3).
"""

from .comm import Communicator
from .message import Message, payload_bytes

__all__ = ["Communicator", "Message", "payload_bytes"]
