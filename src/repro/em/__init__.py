"""External-memory machine substrate.

Implements the Aggarwal–Vitter model literally: a :class:`Machine` with
``M`` records of memory and a block device of ``B``-record blocks, exact
I/O counting, and an enforcing memory accountant.
"""

from .disk import Disk, IOCounters
from .errors import (
    BadBlockError,
    BlockSizeError,
    CounterConservationError,
    DiskError,
    DoubleFreeError,
    DoubleReleaseError,
    EMError,
    FileError,
    LeaseError,
    LeaseLeakError,
    MemoryBudgetError,
    SanitizerError,
    SpecError,
    StreamError,
    UninitializedReadError,
    UseAfterFreeError,
)
from .faults import InjectedFault, arm_fault
from .file import EMFile
from .kernels import KernelBackend, get_kernel
from .machine import (
    Machine,
    MemoryAccountant,
    MemoryLease,
    observe_machines,
    sanitize_default,
)
from .records import (
    KEY_MAX,
    KEY_MIN,
    RECORD_DTYPE,
    UID_BITS,
    UID_MAX,
    composite,
    composite_of,
    concat_records,
    empty_records,
    make_records,
    sort_records,
)
from .wire import (
    RECV_PHASE,
    SEND_PHASE,
    WORDS_PER_RECORD,
    charge_recv,
    charge_send,
    message_blocks,
    payload_words,
)
from .streams import (
    BlockWriter,
    ChunkScanner,
    copy_file,
    merge_sorted_files,
    scan_chunks,
)

__all__ = [
    "Machine",
    "MemoryAccountant",
    "MemoryLease",
    "observe_machines",
    "KernelBackend",
    "get_kernel",
    "Disk",
    "IOCounters",
    "EMFile",
    "BlockWriter",
    "ChunkScanner",
    "scan_chunks",
    "merge_sorted_files",
    "copy_file",
    "RECORD_DTYPE",
    "KEY_MIN",
    "KEY_MAX",
    "UID_BITS",
    "UID_MAX",
    "make_records",
    "empty_records",
    "composite",
    "composite_of",
    "sort_records",
    "concat_records",
    "EMError",
    "MemoryBudgetError",
    "LeaseError",
    "DiskError",
    "BadBlockError",
    "BlockSizeError",
    "FileError",
    "StreamError",
    "SpecError",
    "SanitizerError",
    "UseAfterFreeError",
    "DoubleFreeError",
    "UninitializedReadError",
    "LeaseLeakError",
    "DoubleReleaseError",
    "CounterConservationError",
    "InjectedFault",
    "arm_fault",
    "sanitize_default",
    "WORDS_PER_RECORD",
    "SEND_PHASE",
    "RECV_PHASE",
    "payload_words",
    "message_blocks",
    "charge_send",
    "charge_recv",
]
