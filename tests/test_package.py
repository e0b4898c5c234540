import agentmeter


def test_every_exported_name_exists_once():
    # a name left in __all__ after its code is gone makes
    # `from agentmeter import *` raise AttributeError
    names = agentmeter.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(agentmeter, name)] == []
